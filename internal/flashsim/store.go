package flashsim

import (
	"fmt"
	"sort"
	"time"
)

// FileStore is a simulated flat filesystem on a flash Device. It holds
// file contents in memory while charging modeled flash latencies for
// every operation and accounting allocation slack per file.
//
// A file is either plain — the store holds its bytes — or one of a
// mounted Volume's: a layer that keeps its files in a form of its own
// (the result database keeps each as header entries naming their
// records, internal/resultdb) mounts itself over their names, and the
// store asks it for sizes and renders the bytes only when a caller reads
// them. The two kinds are indistinguishable from outside. A store whose
// files all live in a volume holds no per-file state at all: the plain
// files' map is allocated with the first plain file.
//
// The PocketSearch result database (internal/resultdb) and the cache
// patch mechanism (internal/updater) are built on this store.
type FileStore struct {
	dev *Device
	// files holds the plain files by name; nil until the first.
	files map[string][]byte
	// vols are the mounted volumes in mount order.
	vols []mount
}

type mount struct {
	key string
	v   Volume
}

// Volume is a set of file names whose files a layer keeps in a form of
// its own. The store routes every operation on a name the volume claims
// to it: sizes and renderings come from the volume, and a write from
// outside the owner (Write, Append, ReplaceSilently) hands the volume
// the new bytes to hold as they are. Volumes mounted on one store must
// claim disjoint names.
type Volume interface {
	// Claims reports whether name is one of the volume's, held or not.
	Claims(name string) bool
	// Size is the length of the named file; false when the volume holds
	// no such file.
	Size(name string) (int, bool)
	// AppendFile appends the bytes of the named file, one Size reports,
	// to b and returns the result.
	AppendFile(b []byte, name string) []byte
	// Put makes data the named file's bytes; the volume keeps data.
	Put(name string, data []byte)
	// Remove deletes the named file and reports whether it existed.
	Remove(name string) bool
	// Held appends the names of the files the volume holds to names.
	Held(names []string) []string
}

// NewFileStore creates an empty store on the given device.
func NewFileStore(dev *Device) *FileStore {
	return &FileStore{dev: dev}
}

// Device returns the underlying flash device.
func (fs *FileStore) Device() *Device { return fs.dev }

// Mount makes v the volume mounted under key, replacing any volume
// mounted there. The replaced volume's files and the plain files v
// claims stay in the store, as files written from outside v: those v
// claims are handed to v (except any v already holds), the rest become
// plain.
func (fs *FileStore) Mount(key string, v Volume) {
	i := 0
	for i < len(fs.vols) && fs.vols[i].key != key {
		i++
	}
	if i == len(fs.vols) {
		fs.vols = append(fs.vols, mount{key: key})
	}
	prev := fs.vols[i].v
	fs.vols[i].v = v
	for name, data := range fs.files {
		if v.Claims(name) {
			delete(fs.files, name)
			v.Put(name, data)
		}
	}
	if prev != nil {
		for _, name := range prev.Held(nil) {
			if _, held := v.Size(name); !held {
				fs.setPlain(name, render(prev, name))
			}
		}
	}
}

// Volume returns the volume mounted under key, or nil.
func (fs *FileStore) Volume(key string) Volume {
	for _, m := range fs.vols {
		if m.key == key {
			return m.v
		}
	}
	return nil
}

// volume is the mounted volume that claims name, or nil.
func (fs *FileStore) volume(name string) Volume {
	for _, m := range fs.vols {
		if m.v.Claims(name) {
			return m.v
		}
	}
	return nil
}

// lookup returns the named file's bytes and whether it exists. A
// volume's file is rendered afresh (fresh is true); a plain file's
// bytes are the store's own, not a copy.
func (fs *FileStore) lookup(name string) (data []byte, fresh, ok bool) {
	if v := fs.volume(name); v != nil {
		if _, ok := v.Size(name); !ok {
			return nil, false, false
		}
		return render(v, name), true, true
	}
	data, ok = fs.files[name]
	return data, false, ok
}

// render returns a volume file's bytes as a fresh slice of exactly their
// length.
func render(v Volume, name string) []byte {
	n, _ := v.Size(name)
	return v.AppendFile(make([]byte, 0, n), name)
}

// setPlain makes data the named file's bytes, handing them to the
// volume that claims the name, if any.
func (fs *FileStore) setPlain(name string, data []byte) {
	if v := fs.volume(name); v != nil {
		v.Put(name, data)
		return
	}
	if fs.files == nil {
		fs.files = make(map[string][]byte)
	}
	fs.files[name] = data
}

// ErrNotExist reports that a named file is absent from the store.
type ErrNotExist struct{ Name string }

func (e *ErrNotExist) Error() string { return fmt.Sprintf("flashsim: file %q does not exist", e.Name) }

// Exists reports whether the named file exists. It charges no latency:
// existence checks hit the in-DRAM filesystem metadata.
func (fs *FileStore) Exists(name string) bool {
	_, err := fs.Size(name)
	return err == nil
}

// Size returns the logical size of the named file, or an error if it
// does not exist.
func (fs *FileStore) Size(name string) (int, error) {
	if v := fs.volume(name); v != nil {
		if n, ok := v.Size(name); ok {
			return n, nil
		}
	} else if data, ok := fs.files[name]; ok {
		return len(data), nil
	}
	return 0, &ErrNotExist{name}
}

// Write replaces the named file's contents, creating it if needed, and
// returns the modeled latency of the operation.
func (fs *FileStore) Write(name string, data []byte) time.Duration {
	t := fs.dev.OpenCost()
	if fs.Exists(name) {
		t += fs.dev.RewriteCost(len(data))
	} else {
		t += fs.dev.WriteCost(len(data))
	}
	fs.setPlain(name, append([]byte(nil), data...))
	return t
}

// Append adds data to the end of the named file, creating it if needed,
// and returns the modeled latency. Appends program only the new pages.
func (fs *FileStore) Append(name string, data []byte) time.Duration {
	t := fs.dev.OpenCost() + fs.dev.WriteCost(len(data))
	old, _, _ := fs.lookup(name)
	fs.setPlain(name, append(old, data...))
	return t
}

// Read returns the full contents of the named file and the modeled
// latency (open plus per-page reads).
func (fs *FileStore) Read(name string) ([]byte, time.Duration, error) {
	data, ok := fs.Peek(name)
	if !ok {
		return nil, 0, &ErrNotExist{name}
	}
	t := fs.dev.OpenCost() + fs.dev.ReadCost(len(data))
	return data, t, nil
}

// ReadAt returns n bytes starting at off from the named file, charging
// open cost plus reads for the touched pages only. Reads past the end
// of the file are truncated.
func (fs *FileStore) ReadAt(name string, off, n int) ([]byte, time.Duration, error) {
	data, _, ok := fs.lookup(name)
	if !ok {
		return nil, 0, &ErrNotExist{name}
	}
	size := len(data)
	if off < 0 || off > size {
		return nil, 0, fmt.Errorf("flashsim: offset %d out of range for %q (size %d)", off, name, size)
	}
	end := off + n
	if n < 0 || end > size {
		end = size
	}
	t := fs.dev.OpenCost() + fs.dev.ReadCost(end-off)
	return append([]byte(nil), data[off:end]...), t, nil
}

// Peek returns the named file's contents without charging any device
// cost. It is intended for layers (such as internal/resultdb) that
// model their own access costs explicitly and only need the bytes.
// The returned slice is a copy.
func (fs *FileStore) Peek(name string) ([]byte, bool) {
	data, fresh, ok := fs.lookup(name)
	if !ok || fresh {
		return data, ok
	}
	return append([]byte(nil), data...), true
}

// PeekRef is Peek without the copy where the store holds the bytes: it
// returns a read-only view of a plain file's stored bytes, or a fresh
// rendering of a volume's file. The view is valid until the file is
// next written, appended to, or deleted — Write and ReplaceSilently
// install different bytes and Append may grow in place, so a caller
// must drop its view whenever it performs any mutation of the file.
// Callers must not modify the returned slice.
func (fs *FileStore) PeekRef(name string) ([]byte, bool) {
	data, _, ok := fs.lookup(name)
	return data, ok
}

// ReplaceSilently sets the named file's contents without charging any
// device cost, for layers that charge their own modeled latencies. The
// store takes ownership of data — it is stored, not copied. The caller
// may keep reading data under PeekRef's rule (until the file's next
// write, append or delete) and must never modify it.
func (fs *FileStore) ReplaceSilently(name string, data []byte) {
	fs.setPlain(name, data)
}

// Delete removes the named file. Deleting a missing file is an error.
func (fs *FileStore) Delete(name string) error {
	if v := fs.volume(name); v != nil {
		if v.Remove(name) {
			return nil
		}
	} else if _, ok := fs.files[name]; ok {
		delete(fs.files, name)
		return nil
	}
	return &ErrNotExist{name}
}

// Names returns the stored file names in sorted order.
func (fs *FileStore) Names() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	for _, m := range fs.vols {
		names = m.v.Held(names)
	}
	sort.Strings(names)
	return names
}

// sizes calls fn with the size of every file.
func (fs *FileStore) sizes(fn func(int)) {
	for _, data := range fs.files {
		fn(len(data))
	}
	for _, m := range fs.vols {
		for _, name := range m.v.Held(nil) {
			n, _ := m.v.Size(name)
			fn(n)
		}
	}
}

// LogicalBytes is the sum of file sizes.
func (fs *FileStore) LogicalBytes() int64 {
	var total int64
	fs.sizes(func(n int) { total += int64(n) })
	return total
}

// AllocatedBytes is the flash space the files occupy after rounding
// each up to the allocation unit.
func (fs *FileStore) AllocatedBytes() int64 {
	var total int64
	fs.sizes(func(n int) { total += fs.dev.AllocatedBytes(n) })
	return total
}

// FragmentationBytes is the allocation slack: allocated minus logical.
// It grows with the number of files, which is the cost side of the
// paper's file-count tradeoff (Section 5.2.2).
func (fs *FileStore) FragmentationBytes() int64 {
	return fs.AllocatedBytes() - fs.LogicalBytes()
}
