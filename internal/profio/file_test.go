package profio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveFileRoundTrip: the happy path writes a loadable file and
// leaves no temp litter behind.
func TestSaveFileRoundTrip(t *testing.T) {
	p := liveProfile(t)
	path := filepath.Join(t.TempDir(), "run.numaprof")
	if err := SaveFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppName != p.AppName {
		t.Fatalf("AppName = %q, want %q", got.AppName, p.AppName)
	}
	assertNoTempLitter(t, filepath.Dir(path))
}

// TestSaveFileMatchesSave: SaveFile's bytes are exactly Save's — the
// atomic path must not perturb the format (the daemon's byte-identity
// guarantee against the CLI rides on this).
func TestSaveFileMatchesSave(t *testing.T) {
	p := liveProfile(t)
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.numaprof")
	if err := SaveFile(path, p); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Fatal("SaveFile bytes differ from Save bytes")
	}
}

// TestTornWritePreservesOldFile kills a write midway — the writer gets
// half a document and then a simulated crash — and asserts the previous
// complete file is still exactly what Load sees.
func TestTornWritePreservesOldFile(t *testing.T) {
	p := liveProfile(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.numaprof")
	if err := SaveFile(path, p); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A full document, cut off mid-bytes at several points, never
	// reaches the real file: the rename only happens after a complete
	// write.
	var whole bytes.Buffer
	if err := Save(&whole, p); err != nil {
		t.Fatal(err)
	}
	killed := errors.New("simulated kill mid-write")
	for _, frac := range []float64{0, 0.25, 0.5, 0.99} {
		n := int(frac * float64(whole.Len()))
		err := AtomicWrite(path, func(w io.Writer) error {
			if _, err := w.Write(whole.Bytes()[:n]); err != nil {
				return err
			}
			return killed
		})
		if !errors.Is(err, killed) {
			t.Fatalf("frac %.2f: err = %v, want the injected kill", frac, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("frac %.2f: old file gone after torn write: %v", frac, err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("frac %.2f: file bytes changed under a torn write", frac)
		}
		if _, err := LoadFile(path); err != nil {
			t.Fatalf("frac %.2f: Load after torn write: %v", frac, err)
		}
	}
	assertNoTempLitter(t, dir)
}

// TestTornWriteFreshPathLeavesNothing: when there was no previous file,
// a killed write leaves none — not a torn one.
func TestTornWriteFreshPathLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.numaprof")
	killed := errors.New("simulated kill mid-write")
	err := AtomicWrite(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, magicV2+"\n{\"section\":\"meta\""); err != nil {
			return err
		}
		return killed
	})
	if !errors.Is(err, killed) {
		t.Fatalf("err = %v, want the injected kill", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn write left a file behind (stat err = %v)", err)
	}
	assertNoTempLitter(t, dir)
}

func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
