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
// function".
//
// The layout follows the paper's flat array. A table is two slabs of
// fixed-size elements — entries (query hash, chain link, used-slot
// count, flags) and their refs, SlotsPerEntry refs per entry — plus an
// open-addressed index of each chain's first entry. Entries freed by
// Remove go on a free list that the next new entry reuses. Nothing in
// the slabs or the index holds a pointer, so the collector traces a
// table's three headers however many queries it indexes, and the slabs
// grow by an eighth (internal/slab), not by doubling, so a per-user
// table carries little slack. TestSlabsHoldNoPointers keeps it that way.
package hashtable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"pocketcloudlets/internal/slab"
)

// SearchRef is one search-result slot: the hash of the result's web
// address (which doubles as the database key) and its ranking score.
type SearchRef struct {
	ResultHash uint64
	Score      float64
}

// entry is one hash-table entry. Its refs are the used leading slots of
// its block in Table.refs.
type entry struct {
	// query is the hash of the query whose chain holds the entry.
	query uint64
	// next is the slab index of the chain's next entry (the next free
	// entry while on the free list), or none.
	next int32
	// used counts the entry's occupied slots.
	used int32
	// flags holds one accessed bit per slot.
	flags uint64
}

// none ends a chain or the free list.
const none = -1

// Flag bits: bit i set means the user has accessed slot i of the entry.
// The paper reserves the remaining bits for future use.
const accessedBit = 1

// MaxSlotsPerEntry is the most slots an entry can have: one accessed
// bit per slot in the 64-bit flags word.
const MaxSlotsPerEntry = 64

// Table is the query hash table.
type Table struct {
	slots int
	// heads is the index of chain heads, open-addressed with linear
	// probing: a slot holds one plus the slab index of a chain's first
	// entry, or zero when empty, and a query's probe starts at its home
	// slot. Its length is zero or a power of two, at most three quarters
	// full.
	heads   []int32
	queries int
	entries []entry
	// refs holds slots refs per entry: entry e's block is
	// refs[e*slots : (e+1)*slots].
	refs []SearchRef
	// free is the first entry of the free list, or none.
	free int32
	// numEntries and refCount count chained entries and stored refs for
	// O(1) stats.
	numEntries int
	refCount   int
}

// New creates a table with the given number of search-result slots per
// entry. The paper's design uses two; Figure 11 sweeps 1..6.
func New(slotsPerEntry int) (*Table, error) {
	if slotsPerEntry < 1 || slotsPerEntry > MaxSlotsPerEntry {
		return nil, fmt.Errorf("hashtable: slots per entry must be in [1, %d], got %d", MaxSlotsPerEntry, slotsPerEntry)
	}
	return &Table{slots: slotsPerEntry, free: none}, nil
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
func (t *Table) NumQueries() int { return t.queries }

// NumEntries returns the total number of entries including chained ones.
func (t *Table) NumEntries() int { return t.numEntries }

// NumRefs returns the total number of stored search references.
func (t *Table) NumRefs() int { return t.refCount }

// home is a query's first probe slot: the top bits of its hash times
// 2^64/φ, so nearby hashes land far apart.
func (t *Table) home(queryHash uint64) int {
	return int((queryHash * 0x9e3779b97f4a7c15) >> (64 - bits.Len(uint(len(t.heads)-1))))
}

// slot is the index slot holding queryHash's chain head, or the empty
// slot where the probe for it ends.
func (t *Table) slot(queryHash uint64) int {
	mask := len(t.heads) - 1
	s := t.home(queryHash)
	for t.heads[s] != 0 && t.entries[t.heads[s]-1].query != queryHash {
		s = (s + 1) & mask
	}
	return s
}

// head returns the first entry of queryHash's chain.
func (t *Table) head(queryHash uint64) (int32, bool) {
	if t.queries == 0 {
		return none, false
	}
	h := t.heads[t.slot(queryHash)]
	return h - 1, h != 0
}

// addHead indexes e as the first entry of its query's new chain.
func (t *Table) addHead(e int32) {
	if 4*(t.queries+1) > 3*len(t.heads) {
		t.rehash(t.queries + 1)
	}
	t.heads[t.slot(t.entries[e].query)] = e + 1
	t.queries++
}

// rehash rebuilds the index with room for n chains.
func (t *Table) rehash(n int) {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	old := t.heads
	t.heads = make([]int32, size)
	for _, h := range old {
		if h != 0 {
			t.heads[t.slot(t.entries[h-1].query)] = h
		}
	}
}

// dropHead removes queryHash's chain from the index. The entries after
// it in its probe run move back over the hole when their probe starts at
// or before it, so no probe ever crosses an empty slot to reach its key.
func (t *Table) dropHead(queryHash uint64) {
	mask := len(t.heads) - 1
	hole := t.slot(queryHash)
	t.heads[hole] = 0
	t.queries--
	for s := (hole + 1) & mask; t.heads[s] != 0; s = (s + 1) & mask {
		if (s-t.home(t.entries[t.heads[s]-1].query))&mask >= (s-hole)&mask {
			t.heads[hole], t.heads[s] = t.heads[s], 0
			hole = s
		}
	}
}

// block returns entry e's used refs.
func (t *Table) block(e int32) []SearchRef {
	base := int(e) * t.slots
	return t.refs[base : base+int(t.entries[e].used)]
}

// Contains reports whether the query hash has an entry — the cache
// hit/miss test. On the paper's prototype this lookup costs ~10 µs and
// is therefore negligible on both the hit and the miss path (Table 4).
func (t *Table) Contains(queryHash uint64) bool {
	_, ok := t.head(queryHash)
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
	head, ok := t.head(queryHash)
	if !ok {
		return nil
	}
	return t.sortedRefs(head, buf)
}

// sortedRefs collects the refs of the chain starting at head into buf in
// Lookup order.
func (t *Table) sortedRefs(head int32, buf []SearchRef) []SearchRef {
	refs := buf[:0]
	for e := head; e != none; e = t.entries[e].next {
		refs = append(refs, t.block(e)...)
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
	_, ok := t.Probe(queryHash, resultHash)
	return ok
}

// Probe is the position of one stored (query, result) pair: the query's
// chain and the entry and slot that hold the pair. A serve that has
// classified a pair as a hit does everything else a hit does to the
// table — rank the query's results, apply the click, set the accessed
// bit — from the position, without looking the query up again.
//
// A Probe is valid until the next Put, Remove or RemoveResult on the
// table it came from; using one after that is a misuse (it may read or
// write slots that now hold another pair). The fleet never does: it
// probes and serves under one shard-lock hold.
type Probe struct {
	t         *Table
	head, ent int32
	si        int32
}

// Probe locates the (query, result) pair; ok is false when it is not
// stored.
func (t *Table) Probe(queryHash, resultHash uint64) (p Probe, ok bool) {
	head, ok := t.head(queryHash)
	if !ok {
		return Probe{}, false
	}
	for e := head; e != none; e = t.entries[e].next {
		for si, r := range t.block(e) {
			if r.ResultHash == resultHash {
				return Probe{t: t, head: head, ent: e, si: int32(si)}, true
			}
		}
	}
	return Probe{}, false
}

// ref returns the probed pair's slot.
func (p Probe) ref() *SearchRef { return &p.t.refs[int(p.ent)*p.t.slots+int(p.si)] }

// Refs is Table.LookupInto for the probed pair's query: every result of
// the query in Lookup order, written into buf.
func (p Probe) Refs(buf []SearchRef) []SearchRef { return p.t.sortedRefs(p.head, buf) }

// Click applies Equations 1 and 2 of the paper to the probed pair's
// query in place: the clicked (probed) result's score grows by one and
// every sibling's is multiplied by decay (e^-lambda). It returns the
// clicked result's new score.
func (p Probe) Click(decay float64) float64 {
	t := p.t
	for e := p.head; e != none; e = t.entries[e].next {
		refs := t.block(e)
		for si := range refs {
			if e == p.ent && int32(si) == p.si {
				refs[si].Score++
			} else {
				refs[si].Score *= decay
			}
		}
	}
	return p.ref().Score
}

// MarkAccessed sets the probed pair's accessed flag (Table.MarkAccessed
// without the search).
func (p Probe) MarkAccessed() { p.t.entries[p.ent].flags |= accessedBit << uint(p.si) }

// Score returns the ranking score of a (query, result) pair.
func (t *Table) Score(queryHash, resultHash uint64) (float64, bool) {
	p, ok := t.Probe(queryHash, resultHash)
	if !ok {
		return 0, false
	}
	return p.ref().Score, true
}

// Put inserts or updates the (query, result) pair with the given
// score. New results go into the first entry with a free slot, or a
// new chained entry when all are full.
func (t *Table) Put(queryHash uint64, ref SearchRef) {
	head, ok := t.head(queryHash)
	if !ok {
		e := t.newEntry(queryHash)
		t.addHead(e)
		t.appendRef(e, ref)
		return
	}
	var open, tail int32 = none, none
	for e := head; e != none; e = t.entries[e].next {
		for si, r := range t.block(e) {
			if r.ResultHash == ref.ResultHash {
				t.refs[int(e)*t.slots+si].Score = ref.Score
				return
			}
		}
		if open == none && int(t.entries[e].used) < t.slots {
			open = e
		}
		tail = e
	}
	if open == none {
		open = t.newEntry(queryHash)
		t.entries[tail].next = open
	}
	t.appendRef(open, ref)
}

// appendRef stores ref in entry e's first free slot.
func (t *Table) appendRef(e int32, ref SearchRef) {
	t.refs[int(e)*t.slots+int(t.entries[e].used)] = ref
	t.entries[e].used++
	t.refCount++
}

// newEntry returns an empty, unlinked entry of queryHash's chain: the
// free list's first, or a new one at the end of the slabs.
func (t *Table) newEntry(queryHash uint64) int32 {
	t.numEntries++
	if e := t.free; e != none {
		t.free = t.entries[e].next
		t.entries[e] = entry{query: queryHash, next: none}
		return e
	}
	t.entries = append(slab.Reserve(t.entries, 1), entry{query: queryHash, next: none})
	t.refs = slab.Reserve(t.refs, t.slots)[:len(t.refs)+t.slots]
	return int32(len(t.entries) - 1)
}

// SetScore updates the score of an existing pair.
func (t *Table) SetScore(queryHash, resultHash uint64, score float64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	if ok {
		p.ref().Score = score
	}
	return ok
}

// MarkAccessed sets the pair's accessed flag — the bit the server-side
// cache manager uses to decide which entries to preserve (Section 5.4).
func (t *Table) MarkAccessed(queryHash, resultHash uint64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	if ok {
		p.MarkAccessed()
	}
	return ok
}

// Accessed reports whether the pair's accessed flag is set.
func (t *Table) Accessed(queryHash, resultHash uint64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	return ok && t.entries[p.ent].flags&(accessedBit<<uint(p.si)) != 0
}

// Remove deletes the (query, result) pair, compacting its entry and
// dropping empty entries. It reports whether the pair existed.
func (t *Table) Remove(queryHash, resultHash uint64) bool {
	head, ok := t.head(queryHash)
	return ok && t.removeFrom(queryHash, head, resultHash)
}

// RemoveResult deletes every pair that references the given result
// hash (used when a result's record is no longer available). It
// returns the number of pairs removed.
func (t *Table) RemoveResult(resultHash uint64) int {
	n := 0
	// A query holds a result at most once, and removal frees entries
	// without moving any, so one walk of the slab meets each query
	// holding the result once, at the entry that holds it.
	for e := range t.entries {
		if slices.ContainsFunc(t.block(int32(e)), func(r SearchRef) bool { return r.ResultHash == resultHash }) {
			qh := t.entries[e].query
			head, _ := t.head(qh)
			t.removeFrom(qh, head, resultHash)
			n++
		}
	}
	return n
}

// removeFrom removes resultHash from queryHash's chain, which starts at
// head, and reports whether it was there. The entry's later refs and
// their flag bits shift down one slot, and an entry left empty is
// unlinked and freed — with the query itself when it was the chain's
// last.
func (t *Table) removeFrom(queryHash uint64, head int32, resultHash uint64) bool {
	prev := int32(none)
	for e := head; e != none; prev, e = e, t.entries[e].next {
		refs := t.block(e)
		si := slices.IndexFunc(refs, func(r SearchRef) bool { return r.ResultHash == resultHash })
		if si < 0 {
			continue
		}
		copy(refs[si:], refs[si+1:])
		refs[len(refs)-1] = SearchRef{}
		en := &t.entries[e]
		en.used--
		low := en.flags & ((1 << uint(si)) - 1)
		high := (en.flags >> uint(si+1)) << uint(si)
		en.flags = low | high
		t.refCount--
		if en.used > 0 {
			return true
		}
		next := en.next
		switch {
		case prev != none:
			t.entries[prev].next = next
		case next != none:
			t.heads[t.slot(queryHash)] = next + 1
		default:
			t.dropHead(queryHash)
		}
		*en = entry{next: t.free}
		t.free = e
		t.numEntries--
		return true
	}
	return false
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
	for e, en := range t.entries {
		for si, r := range t.block(int32(e)) {
			out = append(out, Pair{
				QueryHash:  en.query,
				ResultHash: r.ResultHash,
				Score:      r.Score,
				Accessed:   en.flags&(accessedBit<<uint(si)) != 0,
			})
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
// placed them. Both slabs are sized exactly. State migration copies a
// user's table this way (the updater's ExportState); EncodedLen sizes
// the transfer it stands for.
func FromPairs(slotsPerEntry int, pairs []Pair) (*Table, error) {
	t, err := New(slotsPerEntry)
	if err != nil {
		return nil, err
	}
	entries, queries := 0, 0
	for rest := pairs; len(rest) > 0; queries++ {
		n := queryRun(rest)
		entries += (n + t.slots - 1) / t.slots
		rest = rest[n:]
	}
	t.rehash(queries)
	t.entries = make([]entry, 0, entries)
	t.refs = make([]SearchRef, entries*t.slots)
	t.numEntries, t.refCount = entries, len(pairs)
	for len(pairs) > 0 {
		run := pairs[:queryRun(pairs)]
		for k, p := range run {
			if k%t.slots == 0 {
				if k > 0 {
					t.entries[len(t.entries)-1].next = int32(len(t.entries))
				}
				t.entries = append(t.entries, entry{query: p.QueryHash, next: none})
				if k == 0 {
					t.addHead(int32(len(t.entries) - 1))
				}
			}
			e := len(t.entries) - 1
			t.refs[e*t.slots+k%t.slots] = SearchRef{ResultHash: p.ResultHash, Score: p.Score}
			t.entries[e].used++
			if p.Accessed {
				t.entries[e].flags |= accessedBit << uint(k%t.slots)
			}
		}
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

// Decode reconstructs a table serialized by Encode. The header's slot
// count is New's to reject (its error is Decode's), and its pair count
// sizes nothing: the table grows with the pairs actually read, so a
// hostile header can claim any count and cost only an error.
func Decode(r io.Reader) (*Table, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("hashtable: decode header: %w", err)
	}
	// A slot count past MaxInt64 converts negative, which New rejects too.
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
