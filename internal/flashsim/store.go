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
// The PocketSearch result database (internal/resultdb) and the cache
// patch mechanism (internal/updater) are built on this store.
type FileStore struct {
	dev   *Device
	files map[string]Content
}

// Content is what the store holds for one file. Most files hold their
// bytes (Bytes); a layer that keeps a file in a form of its own — the
// result database keeps its files as parsed headers over shared records
// — installs that form with ReplaceContent, and the store renders the
// bytes only when a caller asks for them. Every size the store reports
// is Len, so the two kinds are indistinguishable from outside. An
// installed Content must not change afterwards: a write installs a new
// one.
type Content interface {
	// Len is the length of the file's bytes.
	Len() int
	// AppendTo appends the file's bytes to b and returns the result.
	AppendTo(b []byte) []byte
}

// Bytes is a file that holds its bytes.
type Bytes []byte

// Len implements Content.
func (b Bytes) Len() int { return len(b) }

// AppendTo implements Content.
func (b Bytes) AppendTo(dst []byte) []byte { return append(dst, b...) }

// render returns c's bytes as a fresh slice of exactly their length.
func render(c Content) []byte { return c.AppendTo(make([]byte, 0, c.Len())) }

// view returns c's bytes without a copy when it holds them, and a fresh
// rendering otherwise.
func view(c Content) []byte {
	if b, ok := c.(Bytes); ok {
		return b
	}
	return render(c)
}

// NewFileStore creates an empty store on the given device.
func NewFileStore(dev *Device) *FileStore {
	return &FileStore{dev: dev, files: make(map[string]Content)}
}

// Device returns the underlying flash device.
func (fs *FileStore) Device() *Device { return fs.dev }

// ErrNotExist reports that a named file is absent from the store.
type ErrNotExist struct{ Name string }

func (e *ErrNotExist) Error() string { return fmt.Sprintf("flashsim: file %q does not exist", e.Name) }

// Exists reports whether the named file exists. It charges no latency:
// existence checks hit the in-DRAM filesystem metadata.
func (fs *FileStore) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Size returns the logical size of the named file, or an error if it
// does not exist.
func (fs *FileStore) Size(name string) (int, error) {
	c, ok := fs.files[name]
	if !ok {
		return 0, &ErrNotExist{name}
	}
	return c.Len(), nil
}

// Write replaces the named file's contents, creating it if needed, and
// returns the modeled latency of the operation.
func (fs *FileStore) Write(name string, data []byte) time.Duration {
	t := fs.dev.OpenCost()
	if _, existed := fs.files[name]; existed {
		t += fs.dev.RewriteCost(len(data))
	} else {
		t += fs.dev.WriteCost(len(data))
	}
	fs.files[name] = Bytes(append([]byte(nil), data...))
	return t
}

// Append adds data to the end of the named file, creating it if needed,
// and returns the modeled latency. Appends program only the new pages.
// A file kept in its owner's form becomes plain bytes.
func (fs *FileStore) Append(name string, data []byte) time.Duration {
	t := fs.dev.OpenCost() + fs.dev.WriteCost(len(data))
	var old []byte
	if c, ok := fs.files[name]; ok {
		old = view(c)
	}
	fs.files[name] = Bytes(append(old, data...))
	return t
}

// Read returns the full contents of the named file and the modeled
// latency (open plus per-page reads).
func (fs *FileStore) Read(name string) ([]byte, time.Duration, error) {
	c, ok := fs.files[name]
	if !ok {
		return nil, 0, &ErrNotExist{name}
	}
	t := fs.dev.OpenCost() + fs.dev.ReadCost(c.Len())
	return render(c), t, nil
}

// ReadAt returns n bytes starting at off from the named file, charging
// open cost plus reads for the touched pages only. Reads past the end
// of the file are truncated.
func (fs *FileStore) ReadAt(name string, off, n int) ([]byte, time.Duration, error) {
	c, ok := fs.files[name]
	if !ok {
		return nil, 0, &ErrNotExist{name}
	}
	size := c.Len()
	if off < 0 || off > size {
		return nil, 0, fmt.Errorf("flashsim: offset %d out of range for %q (size %d)", off, name, size)
	}
	end := off + n
	if n < 0 || end > size {
		end = size
	}
	t := fs.dev.OpenCost() + fs.dev.ReadCost(end-off)
	return append([]byte(nil), view(c)[off:end]...), t, nil
}

// Peek returns the named file's contents without charging any device
// cost. It is intended for layers (such as internal/resultdb) that
// model their own access costs explicitly and only need the bytes.
// The returned slice is a copy.
func (fs *FileStore) Peek(name string) ([]byte, bool) {
	c, ok := fs.files[name]
	if !ok {
		return nil, false
	}
	return render(c), true
}

// PeekRef is Peek without the copy where the store holds the bytes: it
// returns a read-only view of the named file's stored bytes, or a fresh
// rendering of a file kept in its owner's form. The view is valid until
// the file is next written, appended to, or deleted — Write and the
// Replace methods install different content and Append may grow in
// place, so a caller must drop its view whenever it performs any
// mutation of the file. Callers must not modify the returned slice.
func (fs *FileStore) PeekRef(name string) ([]byte, bool) {
	c, ok := fs.files[name]
	if !ok {
		return nil, false
	}
	return view(c), true
}

// ReplaceSilently sets the named file's contents without charging any
// device cost, for layers that charge their own modeled latencies. The
// store takes ownership of data — it is stored, not copied. The caller
// may keep reading data under PeekRef's rule (until the file's next
// write, append or delete) and must never modify it.
func (fs *FileStore) ReplaceSilently(name string, data []byte) {
	fs.files[name] = Bytes(data)
}

// ReplaceContent is ReplaceSilently for content kept in its owner's
// form: the store keeps c and renders its bytes only when asked (Peek,
// PeekRef, Read, ReadAt, Append).
func (fs *FileStore) ReplaceContent(name string, c Content) {
	fs.files[name] = c
}

// Content returns what the store holds for the named file, so an owner
// can recognise the content it installed without rendering it.
func (fs *FileStore) Content(name string) (Content, bool) {
	c, ok := fs.files[name]
	return c, ok
}

// Delete removes the named file. Deleting a missing file is an error.
func (fs *FileStore) Delete(name string) error {
	if _, ok := fs.files[name]; !ok {
		return &ErrNotExist{name}
	}
	delete(fs.files, name)
	return nil
}

// Names returns the stored file names in sorted order.
func (fs *FileStore) Names() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LogicalBytes is the sum of file sizes.
func (fs *FileStore) LogicalBytes() int64 {
	var total int64
	for _, c := range fs.files {
		total += int64(c.Len())
	}
	return total
}

// AllocatedBytes is the flash space the files occupy after rounding
// each up to the allocation unit.
func (fs *FileStore) AllocatedBytes() int64 {
	var total int64
	for _, c := range fs.files {
		total += fs.dev.AllocatedBytes(c.Len())
	}
	return total
}

// FragmentationBytes is the allocation slack: allocated minus logical.
// It grows with the number of files, which is the cost side of the
// paper's file-count tradeoff (Section 5.2.2).
func (fs *FileStore) FragmentationBytes() int64 {
	return fs.AllocatedBytes() - fs.LogicalBytes()
}
