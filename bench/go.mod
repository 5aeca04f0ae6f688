module ontoaccess/bench

go 1.21

require ontoaccess v0.0.0

replace ontoaccess => ../
