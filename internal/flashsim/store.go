package flashsim

import (
	"fmt"
	"time"
)

// FileStore is a simulated flat filesystem on a flash Device. It holds
// file contents in memory while charging modeled flash latencies for
// every operation and accounting allocation slack per file.
//
// The key-value cloudlets (internal/cloudletos) keep their files in this
// store. The result database (internal/resultdb) keeps its own files and
// uses only the store's device.
type FileStore struct {
	dev *Device
	// files holds the files by name; nil until the first.
	files map[string][]byte
}

// NewFileStore creates an empty store on the given device.
func NewFileStore(dev *Device) *FileStore {
	fs := MakeFileStore(dev)
	return &fs
}

// MakeFileStore returns an empty store on the given device, by value for
// embedding.
func MakeFileStore(dev *Device) FileStore { return FileStore{dev: dev} }

// Device returns the underlying flash device.
func (fs *FileStore) Device() *Device { return fs.dev }

// set makes data the named file's bytes.
func (fs *FileStore) set(name string, data []byte) {
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
	if data, ok := fs.files[name]; ok {
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
	fs.set(name, append([]byte(nil), data...))
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

// Peek returns the named file's contents without charging any device
// cost. It is intended for layers (such as internal/cloudletos) that
// model their own access costs explicitly and only need the bytes.
// The returned slice is a copy.
func (fs *FileStore) Peek(name string) ([]byte, bool) {
	data, ok := fs.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// ReplaceSilently sets the named file's contents without charging any
// device cost. Its caller is resultdb's differential reference, a test
// oracle that charges its own modeled latencies. The store takes
// ownership of data — it is stored, not copied — so the caller must
// never modify it.
func (fs *FileStore) ReplaceSilently(name string, data []byte) {
	fs.set(name, data)
}

// Delete removes the named file. Deleting a missing file is an error.
func (fs *FileStore) Delete(name string) error {
	if _, ok := fs.files[name]; !ok {
		return &ErrNotExist{name}
	}
	delete(fs.files, name)
	return nil
}

// LogicalBytes is the sum of file sizes.
func (fs *FileStore) LogicalBytes() int64 {
	var total int64
	for _, data := range fs.files {
		total += int64(len(data))
	}
	return total
}

// AllocatedBytes is the flash space the files occupy after rounding
// each up to the allocation unit.
func (fs *FileStore) AllocatedBytes() int64 {
	var total int64
	for _, data := range fs.files {
		total += fs.dev.AllocatedBytes(len(data))
	}
	return total
}

// FragmentationBytes is the allocation slack: allocated minus logical.
// It grows with the number of files, which is the cost side of the
// paper's file-count tradeoff (Section 5.2.2).
func (fs *FileStore) FragmentationBytes() int64 {
	return fs.AllocatedBytes() - fs.LogicalBytes()
}
