package profio

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
)

// SaveFile writes a profile to path atomically: the document is written
// to a temp file in the same directory, synced, and renamed over path.
// A job killed or cancelled mid-write can therefore never leave a torn
// .numaprof behind — a reader always sees either the previous complete
// file or none at all. This is the contract the numad profile store
// depends on: a key is present exactly when its bytes are whole.
func SaveFile(path string, p *core.Profile) error {
	return AtomicWrite(path, func(w io.Writer) error {
		return Save(w, p)
	})
}

// LoadFile strictly loads a measurement file from disk, read in one
// buffer sized to the file.
func LoadFile(path string) (*core.Profile, error) {
	var p *core.Profile
	err := WithFileBytes(path, func(data []byte) (err error) {
		p, err = LoadBytes(data)
		return err
	})
	return p, err
}

// WithFileBytes reads a file into one pooled buffer sized to it and
// passes its bytes to use, returning use's error. The buffer goes back
// to the pool when use returns, so use must keep no reference into
// data; LoadBytes keeps none.
func WithFileBytes(path string, use func(data []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := fileBufs.Get().(*bytes.Buffer)
	defer fileBufs.Put(buf)
	buf.Reset()
	if fi, err := f.Stat(); err == nil {
		// MinRead past the size leaves room for the read that sees EOF.
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return err
	}
	return use(buf.Bytes())
}

// fileBufs holds WithFileBytes's read buffers.
var fileBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// AtomicWrite runs write against a temp file in path's directory and
// renames it into place only when write and sync both succeed. On any
// failure the temp file is removed and path is untouched. SaveFile and
// the numad journal's compaction write through it.
func AtomicWrite(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("profio: create temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("profio: sync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("profio: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("profio: rename into place: %w", err)
	}
	return nil
}
