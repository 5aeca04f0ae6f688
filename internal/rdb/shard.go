package rdb

import "math/bits"

// Key-range sharding of the per-table lock domain (not of the data).
//
// A table's committed state stays one immutable tableVersion; what is
// partitioned is the *write lock*: every table carries shardCount
// shard RWMutexes next to its table-level RWMutex, and a write
// transaction that declares the primary keys it will touch
// (BeginWriteShards) acquires the table lock *shared* plus the
// declared shards *exclusive*. Two writers on disjoint key ranges of
// the same table therefore run in parallel; a writer without
// statically known keys falls back to the table-level exclusive lock,
// which conflicts with every shard holder. Shared readers of a table
// (foreign-key neighbourhood, declared read tables) take the table
// lock shared plus *all* shard locks shared, so they still conflict
// with every sharded writer — the integrity checks they perform must
// not race row mutations in any key range.
//
// A key's shard is the top shardBits of the hash of its encoded key
// (pmHash over encodeKey, the hash a pmap's hashed trie uses), for
// every key kind: the lock partition does not depend on which of the
// pk index's two tries holds the key. The shard count is fixed per
// database at Open time (Options.ShardCount, a power of two up to
// MaxShardCount, default DefaultShardCount).
//
// Lock order stays globally sorted and deadlock-free: tables in
// lexicographic key order (as before), and within a table the table
// lock before its shard locks in ascending shard order.

const (
	// DefaultShardCount is the per-table lock-shard count when
	// Options.ShardCount is zero.
	DefaultShardCount = 16
	// MaxShardCount bounds Options.ShardCount: a shard set is one
	// uint64 bitmask.
	MaxShardCount = 64
)

// ShardSet is a bitmask of shard indexes. The zero value means "no
// declared shards" — i.e. the whole-table lock.
type ShardSet uint64

// With returns the set with shard i added.
func (s ShardSet) With(i int) ShardSet { return s | 1<<uint(i) }

// Has reports whether shard i is in the set.
func (s ShardSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Count returns the number of shards in the set.
func (s ShardSet) Count() int { return bits.OnesCount64(uint64(s)) }

// shardOf maps an encoded primary key to its lock shard: the top
// shardBits of the pk-index hash. Zero bits (a single shard) routes
// every key to shard 0.
func shardOf(encKey string, shardBits uint) int {
	if shardBits == 0 {
		return 0
	}
	return int(pmHash(encKey) >> (pmHashBits - shardBits))
}

// shardOfKey maps an encoded primary key to its lock shard under this
// database's configured shard domain.
func (db *Database) shardOfKey(encKey string) int { return shardOf(encKey, db.shardBits) }

// NumShards returns the per-table lock-shard count this database was
// configured with (Options.ShardCount; DefaultShardCount when unset).
func (db *Database) NumShards() int { return db.numShards }

// TableShards declares one write table of a keyed transaction together
// with the shards its primary keys hash to. A zero Shards mask means
// the keys are not statically known: the table is locked whole.
type TableShards struct {
	Table  string
	Shards ShardSet
}

// ShardOfPK returns the lock shard the given primary-key value hashes
// to for the named table, coercing the value to the key column's
// storage type first (so lexically equivalent keys route identically).
// It reports false for unknown tables and composite primary keys.
func (db *Database) ShardOfPK(table string, pk Value) (int, bool) {
	v, ok := db.snapshot().table(table)
	if !ok || len(v.pkCols) != 1 {
		return 0, false
	}
	cv := coerce(pk, &v.schema.Columns[v.pkCols[0]])
	return db.shardOfKey(encodeKey([]Value{cv})), true
}

// ShardableTable reports whether keyed (sharded) write transactions
// are sound for the named table: it must have a single-column primary
// key, no non-key UNIQUE columns (their duplicate checks read the
// whole table), and no self-referencing foreign key (its existence and
// RESTRICT checks read the table being written). Callers use it to
// decide between BeginWriteShards and a whole-table lock; the
// transaction layer enforces the same rules dynamically either way.
func (db *Database) ShardableTable(table string) bool {
	v, ok := db.snapshot().table(table)
	if !ok || len(v.pkCols) != 1 {
		return false
	}
	s := v.schema
	for i := range s.Columns {
		if s.Columns[i].Unique && i != v.pkCols[0] {
			return false
		}
	}
	for _, fk := range s.ForeignKeys {
		if lowerName(fk.RefTable) == lowerName(s.Name) {
			return false
		}
	}
	return true
}
