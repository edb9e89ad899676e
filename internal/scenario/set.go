package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// AbsentBlockError reports a path that runs through a pointer block
// the spec does not have ("faults.loss" on a spec with no fault
// profile) when the caller may not create it.
type AbsentBlockError struct {
	// Block is the path of the absent block, e.g. "fleet.backend".
	Block string
}

func (e *AbsentBlockError) Error() string { return e.Block + ": the spec has no such block" }

// Field resolves a key path — "fleet.batch.max", "faults",
// "classes[0].hedge.clone_factor" — to the spec field it names, by the
// same json-tag lookup Parse decodes with. A pointer block on the way
// is entered only by a further segment, so a path may name the block
// itself; an absent one is allocated when create is set and is an
// *AbsentBlockError otherwise.
func Field(spec *Spec, path string, create bool) (reflect.Value, error) {
	cur := reflect.ValueOf(spec).Elem()
	for at, rest := "", path; rest != ""; {
		if cur.Kind() == reflect.Pointer {
			if cur.IsNil() {
				if !create {
					return reflect.Value{}, &AbsentBlockError{Block: at}
				}
				cur.Set(reflect.New(cur.Type().Elem()))
			}
			cur = cur.Elem()
		}
		var seg string
		seg, rest, _ = strings.Cut(rest, ".")
		if at != "" {
			at += "."
		}
		at += seg
		key, index, indexed := strings.Cut(seg, "[")
		var ok bool
		if cur, ok = jsonField(cur, key); !ok {
			return reflect.Value{}, fmt.Errorf("%s: unknown field", at)
		}
		if indexed {
			i, err := strconv.Atoi(strings.TrimSuffix(index, "]"))
			if err != nil || cur.Kind() != reflect.Slice || i < 0 || i >= cur.Len() {
				return reflect.Value{}, fmt.Errorf("%s: no such element", at)
			}
			cur = cur.Index(i)
		}
	}
	return cur, nil
}

// Set assigns the key at path from its textual value, decoded as Parse
// decodes that key from a file: value is taken as JSON where it is
// JSON and the key is not a string, and as a JSON string otherwise, so
// "8", "true", "250ms", "inf", "ring" and "{}" (a present-but-empty
// block) all mean what they mean in a spec. A value the key cannot
// hold is an *Error carrying the decoder's positional problem.
func Set(spec *Spec, path, value string, create bool) error {
	dst, err := Field(spec, path, create)
	if err != nil {
		return err
	}
	raw := json.RawMessage(value)
	if dst.Kind() == reflect.String || !json.Valid(raw) {
		raw, _ = json.Marshal(value)
	}
	p := &problems{}
	decode(p, path, raw, dst)
	if len(p.list) > 0 {
		return &Error{Problems: p.list}
	}
	return nil
}
