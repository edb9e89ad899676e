package hashtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// observable is everything a table shows the outside: what the slab
// table and its oracle must agree on.
type observable interface {
	Pairs() []Pair
	LookupInto(queryHash uint64, buf []SearchRef) []SearchRef
	NumQueries() int
	NumEntries() int
	NumRefs() int
	FootprintBytes() int64
	Encode(w io.Writer) error
}

// Operation programs draw queries and results from small ranges, so
// chains grow past one entry and pairs collide.
const (
	opQueries = 8
	opResults = 12
)

// sameRef and samePair compare scores bit for bit: a NaN score must sort
// and encode the same way in both tables.
func sameRef(a, b SearchRef) bool {
	return a.ResultHash == b.ResultHash && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

func samePair(a, b Pair) bool {
	return a.QueryHash == b.QueryHash && a.ResultHash == b.ResultHash && a.Accessed == b.Accessed &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

func sameSlice[T any](a, b []T, eq func(T, T) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diffTables describes the first observable on which got and want
// differ, or returns "" when they agree on all of them.
func diffTables(got, want observable) string {
	pairs := want.Pairs()
	if g := got.Pairs(); !sameSlice(g, pairs, samePair) {
		return fmt.Sprintf("Pairs:\n got %v\nwant %v", g, pairs)
	}
	queries := []uint64{math.MaxUint64} // stored by neither
	for _, p := range pairs {
		queries = append(queries, p.QueryHash)
	}
	for _, qh := range queries {
		g, w := got.LookupInto(qh, nil), want.LookupInto(qh, nil)
		if !sameSlice(g, w, sameRef) || (g == nil) != (w == nil) {
			return fmt.Sprintf("LookupInto(%d):\n got %v\nwant %v", qh, g, w)
		}
	}
	if g, w := [3]int{got.NumQueries(), got.NumEntries(), got.NumRefs()}, [3]int{want.NumQueries(), want.NumEntries(), want.NumRefs()}; g != w {
		return fmt.Sprintf("queries/entries/refs %v, want %v", g, w)
	}
	if g, w := got.FootprintBytes(), want.FootprintBytes(); g != w {
		return fmt.Sprintf("FootprintBytes %d, want %d", g, w)
	}
	var g, w bytes.Buffer
	if err := got.Encode(&g); err != nil {
		return err.Error()
	}
	if err := want.Encode(&w); err != nil {
		return err.Error()
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return "Encode bytes differ"
	}
	return ""
}

// opScore maps a program byte to a score: a palette of ties, a negative,
// a NaN and an infinity, then a spread of ordinary values.
func opScore(b byte) float64 {
	palette := [...]float64{0, 1, 0.5, 2, -1, math.NaN(), math.Inf(1), 1}
	if int(b) < len(palette) {
		return palette[b]
	}
	return float64(b) / 16
}

// runOps drives a slab table and the oracle through prog, four bytes an
// operation, and compares them after every step. It returns a
// description of the first divergence, or "".
func runOps(slots int, prog []byte) string {
	const decay = 0.9048374180359595
	got, want := MustNew(slots), newRefTable(slots)
	for step := 0; len(prog) >= 4; step, prog = step+1, prog[4:] {
		op, qh, rh, score := prog[0]%9, uint64(prog[1]%opQueries), uint64(prog[2]%opResults), opScore(prog[3])
		var name string
		switch op {
		case 0:
			name = fmt.Sprintf("Put(%d, %d, %v)", qh, rh, score)
			got.Put(qh, SearchRef{ResultHash: rh, Score: score})
			want.Put(qh, SearchRef{ResultHash: rh, Score: score})
		case 1:
			name = fmt.Sprintf("SetScore(%d, %d, %v)", qh, rh, score)
			if g, w := got.SetScore(qh, rh, score), want.SetScore(qh, rh, score); g != w {
				return fmt.Sprintf("step %d %s returned %v, oracle %v", step, name, g, w)
			}
		case 2:
			name = fmt.Sprintf("Remove(%d, %d)", qh, rh)
			if g, w := got.Remove(qh, rh), want.Remove(qh, rh); g != w {
				return fmt.Sprintf("step %d %s returned %v, oracle %v", step, name, g, w)
			}
		case 3:
			name = fmt.Sprintf("RemoveResult(%d)", rh)
			if g, w := got.RemoveResult(rh), want.RemoveResult(rh); g != w {
				return fmt.Sprintf("step %d %s returned %d, oracle %d", step, name, g, w)
			}
		case 4:
			name = fmt.Sprintf("MarkAccessed(%d, %d)", qh, rh)
			if g, w := got.MarkAccessed(qh, rh), want.MarkAccessed(qh, rh); g != w {
				return fmt.Sprintf("step %d %s returned %v, oracle %v", step, name, g, w)
			}
		case 5, 6:
			name = fmt.Sprintf("Probe(%d, %d)", qh, rh)
			p, ok := got.Probe(qh, rh)
			wp, wok := want.Probe(qh, rh)
			if ok != wok {
				return fmt.Sprintf("step %d %s found %v, oracle %v", step, name, ok, wok)
			}
			if !ok {
				break
			}
			if g, w := p.Refs(nil), wp.Refs(nil); !sameSlice(g, w, sameRef) {
				return fmt.Sprintf("step %d %s.Refs = %v, oracle %v", step, name, g, w)
			}
			if op == 5 {
				name += ".Click"
				if g, w := p.Click(decay), wp.Click(decay); math.Float64bits(g) != math.Float64bits(w) {
					return fmt.Sprintf("step %d %s = %v, oracle %v", step, name, g, w)
				}
			} else {
				name += ".MarkAccessed"
				p.MarkAccessed()
				wp.MarkAccessed()
			}
		case 7:
			name = "FromPairs(Pairs())"
			var err error
			if got, err = FromPairs(slots, got.Pairs()); err != nil {
				return err.Error()
			}
			want = refFromPairs(slots, want.Pairs())
		case 8:
			name = "Decode(Encode())"
			var g, w bytes.Buffer
			if err := got.Encode(&g); err != nil {
				return err.Error()
			}
			if err := want.Encode(&w); err != nil {
				return err.Error()
			}
			var err error
			if got, err = Decode(&g); err != nil {
				return fmt.Sprintf("step %d %s: %v", step, name, err)
			}
			if want, err = refDecode(&w); err != nil {
				return fmt.Sprintf("step %d %s: oracle %v", step, name, err)
			}
		}
		if d := diffTables(got, want); d != "" {
			return fmt.Sprintf("step %d (%d slots) after %s: %s", step, slots, name, d)
		}
	}
	return ""
}

// TestTableMatchesOracle is the slab table's differential test: random
// operation programs at one to six slots — puts, score updates,
// removals, result removals, accessed marks, probed clicks and marks,
// FromPairs and wire round trips — leave it indistinguishable from the
// map-of-chains oracle after every step.
func TestTableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for slots := 1; slots <= 6; slots++ {
		for trial := 0; trial < 40; trial++ {
			prog := make([]byte, 4*150)
			rng.Read(prog)
			if d := runOps(slots, prog); d != "" {
				t.Fatalf("trial %d: %s", trial, d)
			}
		}
	}
}

// FuzzTableOps is TestTableMatchesOracle's property under the fuzzer:
// the first byte picks the slot count, the rest is the program.
func FuzzTableOps(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for slots := byte(0); slots < 6; slots++ {
		prog := make([]byte, 1+4*64)
		rng.Read(prog)
		prog[0] = slots
		f.Add(prog)
	}
	// Fill one query's chain, empty its middle entry, refill it.
	f.Add([]byte{1,
		0, 1, 1, 9, 0, 1, 2, 10, 0, 1, 3, 11, 0, 1, 4, 12, 0, 1, 5, 13,
		4, 1, 3, 0, 2, 1, 3, 0, 2, 1, 4, 0, 0, 1, 6, 5, 5, 1, 6, 0, 7, 0, 0, 0})
	// At 3 slots, fill three entries of one query and empty the first:
	// the entries behind it move up, and the next pairs open an entry at
	// the tail. Then free a slot in the new first entry and refill it.
	f.Add([]byte{2,
		0, 1, 0, 9, 0, 1, 1, 10, 0, 1, 2, 11, 0, 1, 3, 12, 0, 1, 4, 13,
		0, 1, 5, 14, 0, 1, 6, 15, 0, 1, 7, 16, 0, 1, 8, 17, 4, 1, 4, 0,
		2, 1, 1, 0, 2, 1, 0, 0, 2, 1, 2, 0, 0, 1, 9, 18, 0, 1, 10, 19,
		0, 1, 11, 20, 5, 1, 10, 0, 6, 1, 7, 0, 2, 1, 5, 0, 0, 1, 0, 21, 7, 0, 0, 0})
	// At 2 slots, leave a chain's head entry holding one pair, then
	// RemoveResult that result: the head moves to the next entry, and a
	// second query holding only the result drops out of the index.
	f.Add([]byte{1,
		0, 1, 0, 9, 0, 1, 1, 10, 0, 1, 2, 11, 0, 1, 3, 12, 0, 2, 0, 13,
		2, 1, 1, 0, 4, 1, 3, 0, 3, 0, 0, 0, 0, 1, 4, 14, 5, 1, 2, 0, 8, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if d := runOps(1+int(data[0]%6), data[1:]); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzDecode feeds Decode arbitrary bytes. The property is "error, never
// panic" — a hostile header claiming 2^62 slots or 2^64-1 pairs
// included — and a table Decode does accept is the oracle's decoding of
// the same bytes.
func FuzzDecode(f *testing.F) {
	tbl := MustNew(2)
	for i := uint64(0); i < 6; i++ {
		tbl.Put(i%3, SearchRef{ResultHash: i, Score: float64(i)})
	}
	tbl.MarkAccessed(1, 4)
	var valid bytes.Buffer
	if err := tbl.Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	header := func(slots, pairs uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, slots), pairs)
	}
	f.Add(header(1<<62, 1))
	f.Add(header(65, 0))
	f.Add(header(64, 0))
	f.Add(header(0, 0))
	f.Add(header(2, math.MaxUint64))
	f.Add(header(math.MaxUint64, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := refDecode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Decode accepted what the oracle rejects: %v", err)
		}
		if d := diffTables(got, want); d != "" {
			t.Fatal(d)
		}
	})
}

// TestDecodeRejectsHostileHeaders: a header whose slot count New would
// reject is an error, not a panic or a huge allocation, and a pair count
// larger than the input is a read error.
func TestDecodeRejectsHostileHeaders(t *testing.T) {
	for _, slots := range []uint64{0, 65, 1 << 62, math.MaxUint64} {
		hdr := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, slots), 1)
		if _, err := Decode(bytes.NewReader(hdr)); err == nil {
			t.Errorf("Decode accepted a header claiming %d slots", slots)
		}
	}
	hdr := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 2), math.MaxUint64)
	if _, err := Decode(bytes.NewReader(hdr)); err == nil {
		t.Error("Decode accepted 2^64-1 pairs from a bare header")
	}
}

// hasPointers reports whether a value of type typ holds a pointer the
// collector would trace.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestSlabsHoldNoPointers is the package comment's no-pointer rule: the
// element type of every slab in Table, and the key and value of every
// map, hold no pointer — so a table of any size adds nothing for the
// collector to trace beyond its few slab headers. It also holds a node,
// the host cost of every stored pair, at 32 B.
func TestSlabsHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Table{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		var elems []reflect.Type
		switch field.Type.Kind() {
		case reflect.Slice:
			elems = []reflect.Type{field.Type.Elem()}
		case reflect.Map:
			elems = []reflect.Type{field.Type.Key(), field.Type.Elem()}
		}
		for _, elem := range elems {
			if hasPointers(elem) {
				t.Errorf("Table.%s holds %v, which has pointers: the collector traces every element", field.Name, elem)
			}
		}
	}
	if size := unsafe.Sizeof(node{}); size != 32 {
		t.Errorf("a node is %d B, want 32: a stored pair costs its node", size)
	}
	if hasPointers(reflect.TypeOf(uint64(0))) || !hasPointers(reflect.TypeOf(struct{ refs []SearchRef }{})) {
		t.Fatal("hasPointers misclassifies a type")
	}
}
