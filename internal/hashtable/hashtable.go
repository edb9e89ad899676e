// Package hashtable implements the DRAM query hash table of Section
// 5.2.1 of the Pocket Cloudlets paper (Figure 10): the in-memory index
// that links query hashes to search results stored in the flash
// database.
//
// Every entry corresponds to exactly one query and holds a fixed number
// of search-result slots (two in the paper's design — the
// footprint-optimal choice explored in Figure 11), each a pair of
// (web-address hash, ranking score), plus a 64-bit flags word. Queries
// with more results than slots chain additional entries, which the
// paper creates "by properly setting the second argument of the hash
// function"; here the chain is an ordered slice per query hash.
package hashtable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// SearchRef is one search-result slot: the hash of the result's web
// address (which doubles as the database key) and its ranking score.
type SearchRef struct {
	ResultHash uint64
	Score      float64
}

// entry is one hash-table entry: up to slotsPerEntry refs plus flags.
type entry struct {
	refs  []SearchRef
	flags uint64
}

// Flag bits: bit i set means the user has accessed slot i of the entry.
// The paper reserves the remaining bits for future use.
const accessedBit = 1

// Table is the query hash table.
type Table struct {
	slots   int
	entries map[uint64][]entry
	// refCount tracks the total number of stored refs for O(1) stats.
	refCount int
}

// New creates a table with the given number of search-result slots per
// entry. The paper's design uses two; Figure 11 sweeps 1..6.
func New(slotsPerEntry int) (*Table, error) {
	if slotsPerEntry < 1 {
		return nil, fmt.Errorf("hashtable: slots per entry must be >= 1, got %d", slotsPerEntry)
	}
	return &Table{slots: slotsPerEntry, entries: make(map[uint64][]entry)}, nil
}

// MustNew is New for known-good slot counts.
func MustNew(slotsPerEntry int) *Table {
	t, err := New(slotsPerEntry)
	if err != nil {
		panic(err)
	}
	return t
}

// SlotsPerEntry returns the configured slot count.
func (t *Table) SlotsPerEntry() int { return t.slots }

// NumQueries returns the number of distinct query hashes present.
func (t *Table) NumQueries() int { return len(t.entries) }

// NumEntries returns the total number of entries including chained ones.
func (t *Table) NumEntries() int {
	n := 0
	for _, chain := range t.entries {
		n += len(chain)
	}
	return n
}

// NumRefs returns the total number of stored search references.
func (t *Table) NumRefs() int { return t.refCount }

// Contains reports whether the query hash has an entry — the cache
// hit/miss test. On the paper's prototype this lookup costs ~10 µs and
// is therefore negligible on both the hit and the miss path (Table 4).
func (t *Table) Contains(queryHash uint64) bool {
	_, ok := t.entries[queryHash]
	return ok
}

// Lookup returns the search references of a query ordered by
// descending score (ties broken by result hash for determinism).
// It returns nil for a miss.
func (t *Table) Lookup(queryHash uint64) []SearchRef {
	return t.LookupInto(queryHash, nil)
}

// LookupInto is Lookup writing into buf (reused when its capacity
// suffices), so steady-state callers can keep the serve path
// allocation-free. The returned slice aliases buf's backing array and
// is only valid until the next LookupInto with the same buffer. The
// order is identical to Lookup's: descending score, ties broken by
// ascending result hash.
func (t *Table) LookupInto(queryHash uint64, buf []SearchRef) []SearchRef {
	chain, ok := t.entries[queryHash]
	if !ok {
		return nil
	}
	return sortedRefs(chain, buf)
}

// sortedRefs collects a chain's refs into buf in Lookup order.
func sortedRefs(chain []entry, buf []SearchRef) []SearchRef {
	refs := buf[:0]
	for _, e := range chain {
		refs = append(refs, e.refs...)
	}
	// Insertion sort instead of sort.Slice: chains are short (a handful
	// of refs) and sort.Slice's reflection-based closure allocates.
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refLess(refs[j], refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	return refs
}

// refLess is Lookup's total order: descending score, then ascending
// result hash.
func refLess(a, b SearchRef) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ResultHash < b.ResultHash
}

// ContainsRef reports whether the (query, result) pair is stored,
// without allocating — the hit-path form of scanning Lookup's slice.
func (t *Table) ContainsRef(queryHash, resultHash uint64) bool {
	_, _, ok := t.find(queryHash, resultHash)
	return ok
}

// find locates the chain entry and slot index of a (query, result).
func (t *Table) find(queryHash, resultHash uint64) (ei, si int, ok bool) {
	p, ok := t.Probe(queryHash, resultHash)
	return p.ei, p.si, ok
}

// Probe is the position of one stored (query, result) pair: the query's
// chain and the entry and slot that hold the pair. A serve that has
// classified a pair as a hit does everything else a hit does to the
// table — rank the query's results, apply the click, set the accessed
// bit — from the position, without walking the chain from the map again.
//
// A Probe aliases the table's storage. It is valid until the next Put,
// Remove or RemoveResult on the table it came from; using one after
// that is a misuse (it may read or write a chain the table no longer
// holds). The fleet never does: it probes and serves under one
// shard-lock hold.
type Probe struct {
	chain  []entry
	ei, si int
}

// Probe locates the (query, result) pair; ok is false when it is not
// stored.
func (t *Table) Probe(queryHash, resultHash uint64) (p Probe, ok bool) {
	chain := t.entries[queryHash]
	for ei := range chain {
		for si, r := range chain[ei].refs {
			if r.ResultHash == resultHash {
				return Probe{chain: chain, ei: ei, si: si}, true
			}
		}
	}
	return Probe{}, false
}

// Refs is Table.LookupInto for the probed pair's query: every result of
// the query in Lookup order, written into buf.
func (p Probe) Refs(buf []SearchRef) []SearchRef { return sortedRefs(p.chain, buf) }

// Click applies Equations 1 and 2 of the paper to the probed pair's
// query in place: the clicked (probed) result's score grows by one and
// every sibling's is multiplied by decay (e^-lambda). It returns the
// clicked result's new score.
func (p Probe) Click(decay float64) float64 {
	for ei := range p.chain {
		refs := p.chain[ei].refs
		for si := range refs {
			if ei == p.ei && si == p.si {
				refs[si].Score++
			} else {
				refs[si].Score *= decay
			}
		}
	}
	return p.chain[p.ei].refs[p.si].Score
}

// MarkAccessed sets the probed pair's accessed flag (Table.MarkAccessed
// without the search).
func (p Probe) MarkAccessed() { p.chain[p.ei].flags |= accessedBit << uint(p.si) }

// Score returns the ranking score of a (query, result) pair.
func (t *Table) Score(queryHash, resultHash uint64) (float64, bool) {
	ei, si, ok := t.find(queryHash, resultHash)
	if !ok {
		return 0, false
	}
	return t.entries[queryHash][ei].refs[si].Score, true
}

// Put inserts or updates the (query, result) pair with the given
// score. New results go into the first entry with a free slot, or a
// new chained entry when all are full.
func (t *Table) Put(queryHash uint64, ref SearchRef) {
	if ei, si, ok := t.find(queryHash, ref.ResultHash); ok {
		t.entries[queryHash][ei].refs[si].Score = ref.Score
		return
	}
	chain := t.entries[queryHash]
	for i := range chain {
		if len(chain[i].refs) < t.slots {
			chain[i].refs = append(chain[i].refs, ref)
			t.entries[queryHash] = chain
			t.refCount++
			return
		}
	}
	t.entries[queryHash] = append(chain, entry{refs: append(make([]SearchRef, 0, t.slots), ref)})
	t.refCount++
}

// SetScore updates the score of an existing pair.
func (t *Table) SetScore(queryHash, resultHash uint64, score float64) bool {
	ei, si, ok := t.find(queryHash, resultHash)
	if !ok {
		return false
	}
	t.entries[queryHash][ei].refs[si].Score = score
	return true
}

// MarkAccessed sets the pair's accessed flag — the bit the server-side
// cache manager uses to decide which entries to preserve (Section 5.4).
func (t *Table) MarkAccessed(queryHash, resultHash uint64) bool {
	ei, si, ok := t.find(queryHash, resultHash)
	if !ok {
		return false
	}
	t.entries[queryHash][ei].flags |= accessedBit << uint(si)
	return true
}

// Accessed reports whether the pair's accessed flag is set.
func (t *Table) Accessed(queryHash, resultHash uint64) bool {
	ei, si, ok := t.find(queryHash, resultHash)
	if !ok {
		return false
	}
	return t.entries[queryHash][ei].flags&(accessedBit<<uint(si)) != 0
}

// Remove deletes the (query, result) pair, compacting its entry and
// dropping empty entries. It reports whether the pair existed.
func (t *Table) Remove(queryHash, resultHash uint64) bool {
	ei, si, ok := t.find(queryHash, resultHash)
	if !ok {
		return false
	}
	chain := t.entries[queryHash]
	e := &chain[ei]
	// Compact refs and the corresponding flag bits.
	copy(e.refs[si:], e.refs[si+1:])
	e.refs = e.refs[:len(e.refs)-1]
	low := e.flags & ((1 << uint(si)) - 1)
	high := (e.flags >> uint(si+1)) << uint(si)
	e.flags = low | high
	t.refCount--
	if len(e.refs) == 0 {
		chain = append(chain[:ei], chain[ei+1:]...)
	}
	if len(chain) == 0 {
		delete(t.entries, queryHash)
	} else {
		t.entries[queryHash] = chain
	}
	return true
}

// RemoveResult deletes every pair that references the given result
// hash (used when a result's record is no longer available). It
// returns the number of pairs removed.
func (t *Table) RemoveResult(resultHash uint64) int {
	type loc struct{ q, r uint64 }
	var victims []loc
	for qh, chain := range t.entries {
		for _, e := range chain {
			for _, ref := range e.refs {
				if ref.ResultHash == resultHash {
					victims = append(victims, loc{qh, ref.ResultHash})
				}
			}
		}
	}
	for _, v := range victims {
		t.Remove(v.q, v.r)
	}
	return len(victims)
}

// Pair is a flattened (query, result) pair with its metadata, used for
// iteration and serialization.
type Pair struct {
	QueryHash  uint64
	ResultHash uint64
	Score      float64
	Accessed   bool
}

// Pairs returns every stored pair in deterministic order (by query
// hash, then result hash).
func (t *Table) Pairs() []Pair {
	out := make([]Pair, 0, t.refCount)
	for qh, chain := range t.entries {
		for _, e := range chain {
			for si, r := range e.refs {
				out = append(out, Pair{
					QueryHash:  qh,
					ResultHash: r.ResultHash,
					Score:      r.Score,
					Accessed:   e.flags&(accessedBit<<uint(si)) != 0,
				})
			}
		}
	}
	slices.SortFunc(out, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.QueryHash, b.QueryHash), cmp.Compare(a.ResultHash, b.ResultHash))
	})
	return out
}

// FromPairs builds the table Decode builds from the encoding of pairs,
// without the bytes in between: pairs must be as Pairs returns them —
// ordered by (query, result) hash, each at most once — and each query's
// results fill its chain's entries front to back, as Put would have
// placed them. State migration copies a user's table this way (the
// updater's ExportState); EncodedLen sizes the transfer it stands for.
func FromPairs(slotsPerEntry int, pairs []Pair) (*Table, error) {
	t, err := New(slotsPerEntry)
	if err != nil {
		return nil, err
	}
	t.refCount = len(pairs)
	for len(pairs) > 0 {
		run := pairs[:queryRun(pairs)]
		chain := make([]entry, (len(run)+t.slots-1)/t.slots)
		for k, p := range run {
			e := &chain[k/t.slots]
			if e.refs == nil {
				e.refs = make([]SearchRef, 0, t.slots)
			}
			e.refs = append(e.refs, SearchRef{ResultHash: p.ResultHash, Score: p.Score})
			if p.Accessed {
				e.flags |= accessedBit << uint(k%t.slots)
			}
		}
		t.entries[run[0].QueryHash] = chain
		pairs = pairs[len(run):]
	}
	return t, nil
}

// queryRun is the length of the leading run of pairs sharing one query.
func queryRun(pairs []Pair) int {
	n := 1
	for n < len(pairs) && pairs[n].QueryHash == pairs[0].QueryHash {
		n++
	}
	return n
}

// Modeled on-device entry layout (Figure 10): an 8-byte query hash,
// slots x (8-byte result hash + 4-byte score), an 8-byte flags word,
// and an 8-byte chain/bucket link (every practical hash table pays a
// per-entry pointer). With the paper's two slots this is 48 bytes per
// entry — consistent with the paper's own arithmetic of ~200 KB of
// DRAM for the ~4000-entry evaluation cache (Figure 8).
const (
	entryFixedBytes = 8 + 8 + 8 // query hash + flags + chain link
	refBytes        = 8 + 4     // result hash + float32 score
)

// EntryBytes returns the modeled size of one entry with k slots.
func EntryBytes(k int) int { return entryFixedBytes + k*refBytes }

// FootprintBytes returns the modeled DRAM footprint of the table: the
// number of entries (including chained and partially empty ones) times
// the modeled entry size. This is the y-axis of Figures 8 and 11.
func (t *Table) FootprintBytes() int64 {
	return int64(t.NumEntries()) * int64(EntryBytes(t.slots))
}

// EncodedLen is the number of bytes Encode writes for a table of the
// given number of pairs.
func EncodedLen(pairs int) int { return 16 + 25*pairs }

// Encode serializes the table (used when the phone transmits its hash
// table to the server for the Section 5.4 update cycle).
func (t *Table) Encode(w io.Writer) error {
	pairs := t.Pairs()
	var buf [25]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(t.slots))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(pairs)))
	if _, err := w.Write(buf[:16]); err != nil {
		return err
	}
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[:8], p.QueryHash)
		binary.LittleEndian.PutUint64(buf[8:16], p.ResultHash)
		binary.LittleEndian.PutUint64(buf[16:24], floatBits(p.Score))
		buf[24] = 0
		if p.Accessed {
			buf[24] = 1
		}
		if _, err := w.Write(buf[:25]); err != nil {
			return err
		}
	}
	return nil
}

// Decode reconstructs a table serialized by Encode.
func Decode(r io.Reader) (*Table, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("hashtable: decode header: %w", err)
	}
	slots := int(binary.LittleEndian.Uint64(hdr[:8]))
	n := binary.LittleEndian.Uint64(hdr[8:16])
	t, err := New(slots)
	if err != nil {
		return nil, err
	}
	var buf [25]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("hashtable: decode pair %d: %w", i, err)
		}
		qh := binary.LittleEndian.Uint64(buf[:8])
		rh := binary.LittleEndian.Uint64(buf[8:16])
		score := bitsFloat(binary.LittleEndian.Uint64(buf[16:24]))
		t.Put(qh, SearchRef{ResultHash: rh, Score: score})
		if buf[24] != 0 {
			t.MarkAccessed(qh, rh)
		}
	}
	return t, nil
}
