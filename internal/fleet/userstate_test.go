package fleet

import (
	"reflect"
	"testing"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
)

// TestUserStateLayout holds the per-user objects of a resident user to
// the sizes measured when they were made to hold the user's own state
// and nothing else (DESIGN.md, "Measured bytes per user"): the arena
// slot, the device with its flash part, file store and radio link held
// inside it, and the personal cache. The constants every user of a tier
// or a fleet shares — device.Config, radio.Params, flashsim.Params,
// pocketsearch.Options, and the Profile and Settings that resolve them —
// are read through pointers, so a walk of the per-user types by value
// finds none of them. Growing a size, or copying a constants block back
// into a user, is a change to re-measure cold_fill's heap per user for.
func TestUserStateLayout(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
	}{
		{reflect.TypeOf(userState{}), 80},
		{reflect.TypeOf(device.Device{}), 176},
		{reflect.TypeOf(flashsim.Device{}), 72},
		{reflect.TypeOf(radio.Link{}), 48},
		{reflect.TypeOf(pocketsearch.Cache{}), 96},
	} {
		if c.typ.Size() > c.size {
			t.Errorf("%v is %d B, at most %d allowed", c.typ, c.typ.Size(), c.size)
		}
		if path := sharedByValue(c.typ, c.typ.Name()); path != "" {
			t.Errorf("%s holds a shared constants block by value", path)
		}
	}
}

// sharedByValue is the path of the first field of typ, walked by value
// (not through pointers, slices or maps), whose type is a constants
// block the users of a tier or a fleet share, or "".
func sharedByValue(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		switch typ {
		case reflect.TypeOf(device.Config{}), reflect.TypeOf(device.Profile{}),
			reflect.TypeOf(radio.Params{}), reflect.TypeOf(flashsim.Params{}),
			reflect.TypeOf(pocketsearch.Options{}), reflect.TypeOf(pocketsearch.Settings{}):
			return path + " (" + typ.String() + ")"
		}
		for i := 0; i < typ.NumField(); i++ {
			if p := sharedByValue(typ.Field(i).Type, path+"."+typ.Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return sharedByValue(typ.Elem(), path+"[]")
	}
	return ""
}
