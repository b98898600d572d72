package rocksdb

// Stats returns a snapshot.
func (db *DB) Stats() Stats { return db.stats }
