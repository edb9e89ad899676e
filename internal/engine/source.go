package engine

import (
	"sync"

	"pocketcloudlets/internal/searchlog"
)

// Records is the universe as the record source of a result database
// (internal/resultdb's Source). Record i is result i's rendering, made
// where someone reads it, so a database of universe results holds no
// record text. A record that is no result's rendering — bytes a caller
// handed a database — is kept as handed and named past the results. No
// product path stores such a record, so in a fleet the kept list stays
// empty and the lock below is never taken.
type Records struct {
	u    *Universe
	mu   sync.Mutex
	kept [][]byte
}

// Name implements resultdb.Source: a result's rendering is named by the
// result's ID, anything else is kept.
func (s *Records) Name(rec []byte) uint32 {
	if r, ok := s.u.RecordID(rec); ok {
		return uint32(r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kept = append(s.kept, rec)
	return uint32(s.u.NumResults() + len(s.kept) - 1)
}

// keptRecord is kept record id, capacity clipped to its length.
func (s *Records) keptRecord(id uint32) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.kept[int(id)-s.u.NumResults()]
	return rec[:len(rec):len(rec)]
}

// Record implements resultdb.Source: a fresh rendering of a result, the
// very bytes of a kept record.
func (s *Records) Record(id uint32) []byte {
	if r := searchlog.ResultID(id); int(id) < s.u.NumResults() {
		return s.u.AppendRecord(make([]byte, 0, s.u.RecordLen(r)), r)
	}
	return s.keptRecord(id)
}

// AppendRecord implements resultdb.Source.
func (s *Records) AppendRecord(b []byte, id uint32) []byte {
	if int(id) < s.u.NumResults() {
		return s.u.AppendRecord(b, searchlog.ResultID(id))
	}
	return append(b, s.keptRecord(id)...)
}

// Result is record id as the search result it stores: the result itself
// for a result's ID, ParseRecord of a kept record (whose Result.ID is
// zero, a record carrying no ID).
func (s *Records) Result(id uint32) (Result, error) {
	if int(id) < s.u.NumResults() {
		return s.u.Result(searchlog.ResultID(id)), nil
	}
	return ParseRecord(s.keptRecord(id))
}
