package resultdb

// FileBytes renders file i of db — its header line, then its records —
// and reports whether the file exists.
func FileBytes(db *DB, i int) ([]byte, bool) { return db.appendFile(nil, i) }
