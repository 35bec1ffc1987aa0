package profile

import (
	"bytes"
	"io"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/blockio"
	"dmexplore/internal/memhier"
)

// syntheticLog returns a synthetic log and its serial summary.
func syntheticLog(t *testing.T, records int) ([]byte, *LogSummary) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSyntheticLog(&buf, records, 99); err != nil {
		t.Fatal(err)
	}
	s, err := ParseLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != uint64(records) {
		t.Fatalf("synthetic log parsed %d records, wrote %d", s.Records, records)
	}
	return buf.Bytes(), s
}

func TestParseLogParallelMatchesSerial(t *testing.T) {
	defer func(w int64) { blockio.FetchWindowBytes = w }(blockio.FetchWindowBytes)
	blockio.FetchWindowBytes = 64 << 10 // several fetch windows on a small log

	data, want := syntheticLog(t, 400_000) // a few MB, many blocks
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := ParseLogParallel(bytes.NewReader(data), int64(len(data)), workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !SameSummary(got, want) {
			t.Fatalf("workers=%d: parallel summary diverged: %d records vs %d", workers, got.Records, want.Records)
		}
	}
}

func TestParseLogRejectsHeaderlessLog(t *testing.T) {
	data, _ := syntheticLog(t, 50_000)
	bare := data[len(logMagic)+1:] // blocks without the "DMPL" header
	if _, err := ParseLog(bytes.NewReader(bare)); err == nil {
		t.Fatal("serial parse accepted a log without the header")
	}
	if _, err := ParseLogParallel(bytes.NewReader(bare), int64(len(bare)), 8, nil); err == nil {
		t.Fatal("parallel parse accepted a log without the header")
	}
}

func TestLogFormatsAgree(t *testing.T) {
	// Block framing must stay a small constant over the bare records.
	data, _ := syntheticLog(t, 30_000)
	r := blockio.NewReader(bytes.NewReader(data[len(logMagic)+1:]), nil)
	recordBytes := 0
	for {
		_, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recordBytes += len(payload)
	}
	if len(data) >= recordBytes+4096 {
		t.Fatalf("v2 framing overhead too large: %d vs %d bytes", len(data), recordBytes)
	}
}

func TestParseLogV2DetectsCorruption(t *testing.T) {
	data, _ := syntheticLog(t, 100_000)
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/3] ^= 0x10
	if _, err := ParseLog(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("serial parse accepted corruption")
	}
	if _, err := ParseLogParallel(bytes.NewReader(corrupt), int64(len(corrupt)), 4, nil); err == nil {
		t.Fatal("parallel parse accepted corruption")
	}
}

func TestParseLogRejectsUnknownVersion(t *testing.T) {
	bad := append([]byte(logMagic), 9, 0, 0, 0)
	if _, err := ParseLog(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown log version accepted")
	}
	if _, err := ParseLogParallel(bytes.NewReader(bad), int64(len(bad)), 4, nil); err == nil {
		t.Fatal("unknown log version accepted by parallel parser")
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct {
	n   int
	err error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestRunSurfacesLogWriteErrorEarly(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	fw := &failingWriter{n: 4096, err: io.ErrShortWrite}
	_, err := Run(tr, alloc.LeaConfig(memhier.LayerDRAM), h, Options{LogWriter: fw})
	if err == nil {
		t.Fatal("dead log writer not surfaced")
	}
}

func TestRunLogRoundTripsThroughParallelParse(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	var buf bytes.Buffer
	m, err := Run(tr, alloc.KingsleyConfig(memhier.LayerDRAM), h, Options{LogWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseLogParallel(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWords() != m.Accesses {
		t.Fatalf("parallel log words %d != metrics accesses %d", got.TotalWords(), m.Accesses)
	}
}
