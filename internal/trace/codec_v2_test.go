package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmexplore/internal/blockio"
	"dmexplore/internal/stats"
)

// randomTrace builds a valid pseudo-random trace of roughly n events.
func randomTrace(name string, n int, seed uint64) *Trace {
	rng := stats.NewRNG(seed)
	b := NewBuilder(name)
	var live []uint64
	for i := 0; i < n; i++ {
		switch {
		case len(live) > 0 && rng.Bool(0.3):
			k := rng.Intn(len(live))
			b.Free(live[k])
			live = append(live[:k], live[k+1:]...)
		case len(live) > 0 && rng.Bool(0.4):
			b.Access(live[rng.Intn(len(live))], uint64(rng.Intn(500)), uint64(rng.Intn(500)+1))
		case rng.Bool(0.1):
			b.Tick(uint64(rng.Intn(100000) + 1))
		default:
			live = append(live, b.Alloc(int64(rng.Intn(1<<20))+1))
		}
	}
	b.FreeAll()
	return b.Build()
}

func TestBinaryV2RoundTrip(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), randomTrace("v2prop", 20000, 7)} {
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("%s: v2 round trip diverged", tr.Name)
		}
	}
}

func TestReadBinaryParallelMatchesSequential(t *testing.T) {
	defer func(w int64) { blockio.FetchWindowBytes = w }(blockio.FetchWindowBytes)
	blockio.FetchWindowBytes = 16 << 10 // many fetch windows on a small file

	tr := randomTrace("par", 50000, 11)
	var buf bytes.Buffer
	if err := writeBinaryV2(&buf, tr, 4096); err != nil { // many blocks
		t.Fatal(err)
	}
	data := buf.Bytes()
	seq, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantCompiled, err := Compile(seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("workers=%d: parallel read diverged from the source trace", workers)
		}
		gotCompiled, err := Compile(got)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotCompiled, wantCompiled) {
			t.Fatalf("workers=%d: compiled trace diverged", workers)
		}
		slab, err := CompileBinaryParallel(bytes.NewReader(data), int64(len(data)), workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(slab, wantCompiled) {
			t.Fatalf("workers=%d: direct-to-slab compile diverged", workers)
		}
	}
}

func TestReadFileAllFormats(t *testing.T) {
	tr := randomTrace("files", 8000, 5)
	dir := t.TempDir()
	writers := map[string]func(*os.File) error{
		"text": func(f *os.File) error { return WriteText(f, tr) },
		"v2":   func(f *os.File) error { return WriteBinaryV2(f, tr) },
	}
	for format, write := range writers {
		path := filepath.Join(dir, format+".dmt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("%s: ReadFile diverged", format)
		}
		c, err := ReadCompiledFile(path, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if c.Len() != tr.Len() {
			t.Fatalf("%s: compiled %d ops for %d events", format, c.Len(), tr.Len())
		}
	}
}

func TestBinaryV2CorruptionDetected(t *testing.T) {
	tr := randomTrace("crc", 10000, 9)
	var buf bytes.Buffer
	if err := writeBinaryV2(&buf, tr, 2048); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	data[len(data)/2] ^= 0x40 // flip a bit mid-file
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("sequential read accepted corruption")
	}
	if _, err := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 4, nil); err == nil {
		t.Fatal("parallel read accepted corruption")
	}
}

func TestBinaryV1HeaderRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, randomTrace("v1hdr", 2000, 13)); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	data[len(binaryMagic)] = 1 // the retired unframed version
	_, serr := ReadBinary(bytes.NewReader(data))
	_, perr := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 4, nil)
	_, cerr := CompileBinaryParallel(bytes.NewReader(data), int64(len(data)), 4, nil)
	for _, err := range []error{serr, perr, cerr} {
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("version-1 header not rejected by name: %v", err)
		}
	}
}

func TestBinaryV2MissingFooterFailsParallelOnly(t *testing.T) {
	tr := randomTrace("nofoot", 5000, 17)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-8] // chop into the footer trailer
	// The streaming reader never needs the footer...
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("streaming read of footer-chopped file: %v", err)
	}
	// ...but the index-driven parallel reader must refuse loudly.
	if _, err := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 4, nil); err == nil {
		t.Fatal("parallel read accepted a chopped footer")
	}
}

func TestBinaryV2CorruptWindowsReturn(t *testing.T) {
	defer func(w int64) { blockio.FetchWindowBytes = w }(blockio.FetchWindowBytes)
	blockio.FetchWindowBytes = 8 << 10 // more windows than workers
	var buf bytes.Buffer
	if err := writeBinaryV2(&buf, randomTrace("allbad", 50000, 11), 4096); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	// Flip a byte every 1 KiB through the first half of the blocks:
	// both workers fail on their first windows while later windows are
	// still pending, and the read must return instead of waiting on them.
	for off := len(binaryMagic) + 64; off < len(data)/2; off += 1024 {
		data[off] ^= 0xff
	}
	if _, err := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 2, nil); err == nil {
		t.Fatal("parallel read accepted corruption")
	}
	if _, err := CompileBinaryParallel(bytes.NewReader(data), int64(len(data)), 2, nil); err == nil {
		t.Fatal("parallel compile accepted corruption")
	}
}
