package blockio

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// countingStats is a test Stats sink.
type countingStats struct {
	blocks, bytes, records, crcFails atomic.Int64
}

func (s *countingStats) ObserveBlock(payloadBytes, records int) {
	s.blocks.Add(1)
	s.bytes.Add(int64(payloadBytes))
	s.records.Add(int64(records))
}
func (s *countingStats) CRCFailure() { s.crcFails.Add(1) }

// writeRecords frames n small records (uvarint i) with the given block
// target and returns the file bytes and the record payload total.
func writeRecords(t *testing.T, n, target int, header []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, target)
	w.WriteHeader(header)
	var scratch [binary.MaxVarintLen64]byte
	for i := 0; i < n; i++ {
		k := binary.PutUvarint(scratch[:], uint64(i))
		w.Record(scratch[:k])
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundtripSequential(t *testing.T) {
	header := []byte("HDRX")
	data := writeRecords(t, 10000, 64, header)
	if !bytes.Equal(data[:4], header) {
		t.Fatalf("header not first: %q", data[:8])
	}
	stats := &countingStats{}
	r := NewReader(bytes.NewReader(data[4:]), stats)
	var got []uint64
	for {
		records, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			v, n := binary.Uvarint(payload)
			if n <= 0 {
				t.Fatalf("bad record at %d", len(got))
			}
			payload = payload[n:]
			got = append(got, v)
		}
		if len(payload) != 0 {
			t.Fatalf("%d leftover payload bytes", len(payload))
		}
	}
	if len(got) != 10000 {
		t.Fatalf("got %d records", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("record %d = %d", i, v)
		}
	}
	if stats.records.Load() != 10000 || stats.blocks.Load() < 2 || stats.crcFails.Load() != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestIndexMatchesSequential(t *testing.T) {
	header := []byte("HH")
	data := writeRecords(t, 5000, 128, header)
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 2 {
		t.Fatalf("only %d blocks", len(blocks))
	}
	var total int64
	prevEnd := int64(len(header))
	for i, blk := range blocks {
		if blk.Offset != prevEnd {
			t.Fatalf("block %d offset %d, want %d (blocks must be contiguous)", i, blk.Offset, prevEnd)
		}
		// Parse the block straight out of the file bytes.
		records, payload, _, err := parseBlock(data[blk.Offset:], nil)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if records != blk.Records || int64(len(payload)) != blk.PayloadLen {
			t.Fatalf("block %d: parsed %d/%d, index %d/%d", i, records, len(payload), blk.Records, blk.PayloadLen)
		}
		total += records
		prevEnd = blk.Offset + blk.dataLen()
	}
	if total != 5000 {
		t.Fatalf("index records %d", total)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	data := writeRecords(t, 1000, 256, nil)
	// Flip a byte in the middle of the first block's payload.
	corrupt := bytes.Clone(data)
	corrupt[20] ^= 0xFF
	stats := &countingStats{}
	r := NewReader(bytes.NewReader(corrupt), stats)
	_, _, err := r.Next()
	if err == nil {
		t.Fatal("corrupted block accepted")
	}
	if stats.crcFails.Load() != 1 {
		t.Fatalf("crc failures %d", stats.crcFails.Load())
	}
	if _, _, _, err := parseBlock(corrupt, stats); err == nil {
		t.Fatal("parseBlock accepted corruption")
	}
}

func TestTruncationErrors(t *testing.T) {
	data := writeRecords(t, 1000, 256, nil)
	for _, cut := range []int{1, 7, len(data) / 2} {
		r := NewReader(bytes.NewReader(data[:cut]), nil)
		for {
			_, _, err := r.Next()
			if err == io.EOF {
				t.Fatalf("cut at %d read cleanly", cut)
			}
			if err != nil {
				break
			}
		}
	}
	if _, _, err := readIndex(bytes.NewReader(data[:len(data)-3]), int64(len(data)-3)); err == nil {
		t.Fatal("truncated footer accepted")
	}
	if _, _, err := readIndex(bytes.NewReader(data[:4]), 4); err == nil {
		t.Fatal("4-byte file accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	data := writeRecords(t, 0, 256, nil)
	r := NewReader(bytes.NewReader(data), nil)
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty file: %v", err)
	}
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(blocks) != 0 {
		t.Fatalf("empty index: %v %v", blocks, err)
	}
	ix, err := OpenIndex(bytes.NewReader(data), int64(len(data)), 0)
	if err != nil || ix.Records() != 0 {
		t.Fatalf("empty OpenIndex: %v", err)
	}
	if err := ix.Decode(4, nil, func(int, int64, int64, []byte) error {
		t.Fatal("callback on an empty file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// decodeAll runs Index.Decode over data and returns, per record, how
// often it was handed out. It fails the test on a record out of place or
// on a worker seeing blocks out of file order (windows are claimed in
// file order, so each worker's blocks must arrive ascending).
func decodeAll(t *testing.T, data []byte, headerLen int64, workers int) ([]int32, error) {
	t.Helper()
	ix, err := OpenIndex(bytes.NewReader(data), int64(len(data)), headerLen)
	if err != nil {
		return nil, err
	}
	seen := make([]int32, ix.Records())
	lastFirst := make([]int64, ix.Workers(workers))
	for i := range lastFirst {
		lastFirst[i] = -1
	}
	err = ix.Decode(workers, nil, func(w int, first, records int64, payload []byte) error {
		if first <= lastFirst[w] {
			t.Errorf("worker %d: block at record %d handed out after %d", w, first, lastFirst[w])
		}
		lastFirst[w] = first
		for k := first; k < first+records; k++ {
			v, n := binary.Uvarint(payload)
			if n <= 0 || v != uint64(k) {
				t.Errorf("record %d decoded as %d", k, v)
			}
			payload = payload[n:]
			atomic.AddInt32(&seen[k], 1)
		}
		if len(payload) != 0 {
			t.Errorf("block at record %d: %d leftover bytes", first, len(payload))
		}
		return nil
	})
	return seen, err
}

func TestDecodeEveryBlockOnceInOrder(t *testing.T) {
	defer func(w int64) { FetchWindowBytes = w }(FetchWindowBytes)
	FetchWindowBytes = 1 << 10 // many windows on a small file
	header := []byte("HDR")
	data := writeRecords(t, 20000, 100, header)
	ix, err := OpenIndex(bytes.NewReader(data), int64(len(data)), int64(len(header)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.windows) < 8 || ix.Records() != 20000 {
		t.Fatalf("%d windows, %d records", len(ix.windows), ix.Records())
	}
	for _, workers := range []int{1, 3, 8} {
		seen, err := decodeAll(t, data, int64(len(header)), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: record %d handed out %d times", workers, k, c)
			}
		}
	}
}

// withFooter replaces data's footer with one built from index.
func withFooter(t *testing.T, data []byte, index []block) []byte {
	t.Helper()
	_, dataEnd, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return appendFooter(bytes.Clone(data[:dataEnd+1]), index)
}

func TestOpenIndexRejectsBadFooters(t *testing.T) {
	data := writeRecords(t, 3000, 100, []byte("HH"))
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(blocks) < 3 {
		t.Fatalf("%d blocks: %v", len(blocks), err)
	}
	gap := slices.Clone(blocks)
	gap[1].Offset++ // a byte no block covers
	miscount := slices.Clone(blocks)
	miscount[1].Records++
	cases := map[string][]byte{
		"index gap":             withFooter(t, data, gap),
		"record-count mismatch": withFooter(t, data, miscount),
		"header not covered":    data,
	}
	for name, bad := range cases {
		headerLen := int64(2)
		if name == "header not covered" {
			headerLen = 1
		}
		if _, err := decodeAll(t, bad, headerLen, 4); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The rewritten footer itself is well-formed: the unmodified index
	// round-trips through the same helper.
	if _, err := decodeAll(t, withFooter(t, data, blocks), 2, 4); err != nil {
		t.Fatalf("rebuilt footer rejected: %v", err)
	}
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterSurfacesDeferredError(t *testing.T) {
	fw := &failAfter{n: 512, err: io.ErrShortWrite}
	w := NewWriter(fw, 64) // small blocks so the bufio drains early
	var scratch [8]byte
	sawErr := false
	for i := 0; i < 1_000_000; i++ {
		n := binary.PutUvarint(scratch[:], uint64(i))
		w.Record(scratch[:n])
		if w.Err() != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("writer never surfaced the deferred error")
	}
	if err := w.Close(); err == nil {
		t.Fatal("close swallowed the error")
	}
}

func TestDecodeReturnsLowestFailingWindow(t *testing.T) {
	defer func(w int64) { FetchWindowBytes = w }(FetchWindowBytes)
	FetchWindowBytes = 1 << 10
	data := writeRecords(t, 20000, 100, nil)
	ix, err := OpenIndex(bytes.NewReader(data), int64(len(data)), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every block fails, so every worker stops after its first window:
	// Decode must still return (no worker may wait on a stopped peer)
	// and report the failure of the first window.
	for _, workers := range []int{1, 2, 8} {
		err := ix.Decode(workers, nil, func(int, int64, int64, []byte) error {
			return io.ErrUnexpectedEOF
		})
		if err == nil || !strings.Contains(err.Error(), "block 0 ") {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
