// Package blockio implements the self-delimiting block framing shared by
// the v2 trace codec and the v2 raw profile log. Records are grouped into
// blocks — header (record count, payload byte length), CRC32C, payload —
// followed by an end marker and a seekable footer index, so a reader can
// either stream the file front to back or split a multi-gigabyte file
// into independent chunks and decode them on every core.
//
// On-disk layout, after a format-specific header the caller writes:
//
//	block*:  uvarint recordCount (>= 1)
//	         uvarint payloadLen
//	         4-byte little-endian CRC32C of the payload
//	         payload (recordCount records, format-specific encoding)
//	end:     a single 0x00 byte (a zero record count terminates the blocks)
//	footer:  payload: uvarint blockCount, then per block
//	             uvarint offset delta from the previous entry
//	             uvarint recordCount
//	             uvarint payloadLen
//	         4-byte little-endian CRC32C of the footer payload
//	         8-byte little-endian footer payload length
//	         "DMBX" (4-byte trailing magic)
//
// The trailing fixed-size fields let OpenIndex find the footer from the
// end of the file without scanning; the per-block entries let a parallel
// reader place every block's records into a preallocated slab before any
// payload byte is decoded. Index.Decode is that reader for every
// block-framed format: formats supply only their header and a per-block
// record decoder.
package blockio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

const (
	// footerMagic closes every block-framed file.
	footerMagic = "DMBX"

	// DefaultTargetBlockBytes is the payload size a Writer aims for. Big
	// enough that the ~10-byte block header is noise and a CRC pass runs
	// at memory bandwidth, small enough that thousands of independent
	// chunks exist in a gigabyte file.
	DefaultTargetBlockBytes = 256 * 1024

	// maxPayloadLen bounds a single block's payload: a larger claim is
	// corruption, not data.
	maxPayloadLen = 1 << 30

	// footerTrailerLen is the fixed-size tail: CRC32C + payload length +
	// magic.
	footerTrailerLen = 4 + 8 + 4
)

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats receives ingestion observations from readers. Implementations
// must be safe for concurrent use: a parallel reader reports from every
// worker. telemetry.Ingest satisfies it.
type Stats interface {
	// ObserveBlock records one successfully verified block.
	ObserveBlock(payloadBytes, records int)
	// CRCFailure records a block whose checksum did not match.
	CRCFailure()
}

// block describes one block from the footer index.
type block struct {
	Offset     int64 // file offset of the block header
	Records    int64
	PayloadLen int64
}

// dataLen returns the block's full on-disk length: header, CRC, payload.
func (b block) dataLen() int64 {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(b.Records))
	n += binary.PutUvarint(tmp[:], uint64(b.PayloadLen))
	return int64(n) + 4 + b.PayloadLen
}

// Writer frames records into blocks. It buffers one block's payload at a
// time and tracks every block for the footer index. Errors are sticky:
// the first underlying write error is kept and every later call is a
// no-op, so emitters on a hot path can check Err at their own cadence.
type Writer struct {
	bw      *bufio.Writer
	off     int64 // bytes emitted so far (headers, blocks)
	target  int
	payload []byte
	records int64
	index   []block
	scratch [binary.MaxVarintLen64]byte
	err     error
	closed  bool
}

// NewWriter returns a block writer emitting to w. target is the payload
// size a block aims for; <= 0 selects DefaultTargetBlockBytes.
func NewWriter(w io.Writer, target int) *Writer {
	if target <= 0 {
		target = DefaultTargetBlockBytes
	}
	return &Writer{
		bw:      bufio.NewWriterSize(w, 1<<20),
		target:  target,
		payload: make([]byte, 0, target+4096),
	}
}

// WriteHeader emits the caller's format-specific header bytes. It must be
// called before the first Record.
func (w *Writer) WriteHeader(b []byte) {
	if w.err != nil {
		return
	}
	if w.records > 0 || len(w.payload) > 0 || len(w.index) > 0 {
		w.err = fmt.Errorf("blockio: WriteHeader after records")
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return
	}
	w.off += int64(len(b))
}

// Record appends one record's encoded bytes to the current block,
// flushing a full block first. The bytes are copied; the caller may reuse
// its scratch buffer.
func (w *Writer) Record(b []byte) {
	if w.err != nil {
		return
	}
	if len(w.payload) >= w.target {
		w.emitBlock()
	}
	w.payload = append(w.payload, b...)
	w.records++
}

// Err returns the first underlying write error, if any, without waiting
// for Close — an emitter streaming gigabytes can abort as soon as the
// disk fills instead of simulating on against a dead file.
func (w *Writer) Err() error { return w.err }

// emitBlock writes the buffered payload as one block and records it in
// the index.
func (w *Writer) emitBlock() {
	if w.err != nil || w.records == 0 {
		return
	}
	blk := block{Offset: w.off, Records: w.records, PayloadLen: int64(len(w.payload))}
	n := binary.PutUvarint(w.scratch[:], uint64(w.records))
	if _, err := w.bw.Write(w.scratch[:n]); err != nil {
		w.err = err
		return
	}
	w.off += int64(n)
	n = binary.PutUvarint(w.scratch[:], uint64(len(w.payload)))
	if _, err := w.bw.Write(w.scratch[:n]); err != nil {
		w.err = err
		return
	}
	w.off += int64(n)
	binary.LittleEndian.PutUint32(w.scratch[:4], crc32.Checksum(w.payload, castagnoli))
	if _, err := w.bw.Write(w.scratch[:4]); err != nil {
		w.err = err
		return
	}
	w.off += 4
	if _, err := w.bw.Write(w.payload); err != nil {
		w.err = err
		return
	}
	w.off += int64(len(w.payload))
	w.index = append(w.index, blk)
	w.payload = w.payload[:0]
	w.records = 0
}

// Close flushes the final block, the end marker and the footer index.
// The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.emitBlock()
	if w.err != nil {
		return w.err
	}
	if err := w.bw.WriteByte(0); err != nil { // end marker
		w.err = err
		return w.err
	}
	if _, err := w.bw.Write(appendFooter(nil, w.index)); err != nil {
		w.err = err
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// appendFooter appends the footer for index (payload and trailer) to dst.
func appendFooter(dst []byte, index []block) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(index)))
	prev := int64(0)
	for _, blk := range index {
		dst = binary.AppendUvarint(dst, uint64(blk.Offset-prev))
		dst = binary.AppendUvarint(dst, uint64(blk.Records))
		dst = binary.AppendUvarint(dst, uint64(blk.PayloadLen))
		prev = blk.Offset
	}
	footer := dst[start:]
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(footer, castagnoli))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(footer)))
	return append(dst, footerMagic...)
}

// Reader streams blocks front to back. The caller positions r just after
// the format-specific header.
type Reader struct {
	br      *bufio.Reader
	payload []byte
	stats   Stats
	block   int64
	done    bool
}

// NewReader returns a sequential block reader. stats may be nil.
func NewReader(r io.Reader, stats Stats) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	return &Reader{br: br, stats: stats}
}

// Next returns the next block's record count and payload (valid until the
// following call), verifying its CRC. It returns io.EOF at the end
// marker; the footer is left unread.
func (r *Reader) Next() (int, []byte, error) {
	if r.done {
		return 0, nil, io.EOF
	}
	records, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, fmt.Errorf("blockio: block %d: reading record count: %w", r.block, unexpectedEOF(err))
	}
	if records == 0 { // end marker
		r.done = true
		return 0, nil, io.EOF
	}
	payloadLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, fmt.Errorf("blockio: block %d: reading payload length: %w", r.block, unexpectedEOF(err))
	}
	if payloadLen > maxPayloadLen {
		return 0, nil, fmt.Errorf("blockio: block %d: implausible payload length %d (max %d)", r.block, payloadLen, maxPayloadLen)
	}
	if records > payloadLen {
		return 0, nil, fmt.Errorf("blockio: block %d: %d records cannot fit in %d payload bytes", r.block, records, payloadLen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return 0, nil, fmt.Errorf("blockio: block %d: reading crc: %w", r.block, unexpectedEOF(err))
	}
	if int64(payloadLen) <= int64(cap(r.payload)) {
		r.payload = r.payload[:payloadLen]
		if _, err := io.ReadFull(r.br, r.payload); err != nil {
			return 0, nil, fmt.Errorf("blockio: block %d: reading %d payload bytes: %w", r.block, payloadLen, unexpectedEOF(err))
		}
	} else {
		// Grow the buffer only as bytes actually arrive: a corrupt or
		// hostile header may claim up to maxPayloadLen, and trusting it
		// for one up-front allocation would let a 30-byte file demand a
		// gigabyte buffer.
		const growStep = 4 << 20
		r.payload = r.payload[:0]
		for uint64(len(r.payload)) < payloadLen {
			n := payloadLen - uint64(len(r.payload))
			if n > growStep {
				n = growStep
			}
			start := len(r.payload)
			r.payload = append(r.payload, make([]byte, n)...)
			if _, err := io.ReadFull(r.br, r.payload[start:]); err != nil {
				return 0, nil, fmt.Errorf("blockio: block %d: reading %d payload bytes: %w", r.block, payloadLen, unexpectedEOF(err))
			}
		}
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.Checksum(r.payload, castagnoli); got != want {
		if r.stats != nil {
			r.stats.CRCFailure()
		}
		return 0, nil, fmt.Errorf("blockio: block %d: crc mismatch (stored %08x, computed %08x)", r.block, want, got)
	}
	if r.stats != nil {
		r.stats.ObserveBlock(len(r.payload), int(records))
	}
	r.block++
	return int(records), r.payload, nil
}

// FetchWindowBytes is how many contiguous file bytes a worker of
// Index.Decode fetches per ReadAt. Coalescing adjacent blocks into one
// request keeps the request count low (the dominant cost on
// high-latency storage) while leaving enough windows to spread a file
// across workers. A variable so tests can exercise multi-window
// decoding on small files.
var FetchWindowBytes int64 = 4 << 20

// Index is a block-framed file's footer index, checked against the
// file's layout and coalesced into fetch windows: the one way every
// block-framed format is read in parallel.
type Index struct {
	ra      io.ReaderAt
	blocks  []block
	windows []window
	records int64
}

// window is a contiguous run of blocks fetched with one ReadAt.
type window struct {
	off, length int64
	first, last int   // block index range [first, last]
	firstRecord int64 // file-wide index of the window's first record
}

// OpenIndex reads the footer of a block-framed file of size bytes whose
// format-specific header ends at headerEnd. It checks that the blocks
// run contiguously from headerEnd to the end marker, which the footer
// directly follows, and groups them into fetch windows.
func OpenIndex(ra io.ReaderAt, size, headerEnd int64) (*Index, error) {
	blocks, dataEnd, err := readIndex(ra, size)
	if err != nil {
		return nil, err
	}
	ix := &Index{ra: ra, blocks: blocks}
	end := headerEnd
	for i, blk := range blocks {
		if blk.Offset != end {
			return nil, fmt.Errorf("blockio: footer index gap at block %d (offset %d, expected %d)", i, blk.Offset, end)
		}
		if blk.Records < 1 || blk.Records > blk.PayloadLen {
			return nil, fmt.Errorf("blockio: footer entry %d: %d records cannot fit in %d payload bytes", i, blk.Records, blk.PayloadLen)
		}
		blkEnd := blk.Offset + blk.dataLen()
		if n := len(ix.windows); n == 0 || blkEnd-ix.windows[n-1].off > FetchWindowBytes {
			ix.windows = append(ix.windows, window{off: blk.Offset, first: i, firstRecord: ix.records})
		}
		w := &ix.windows[len(ix.windows)-1]
		w.last, w.length = i, blkEnd-w.off
		ix.records += blk.Records
		end = blkEnd
	}
	if end != dataEnd {
		return nil, fmt.Errorf("blockio: blocks end at offset %d, end marker at %d", end, dataEnd)
	}
	return ix, nil
}

// Records returns the file's total record count, for preallocation.
func (ix *Index) Records() int64 { return ix.records }

// Workers returns how many goroutines Decode(workers, ...) runs at most:
// workers clamped to at least 1 and at most the number of fetch
// windows. Callers size per-worker state with it.
func (ix *Index) Workers(workers int) int {
	return max(1, min(workers, len(ix.windows)))
}

// BlockFunc consumes one verified block: worker is the decoding
// goroutine (0 <= worker < Index.Workers), first the file-wide index of
// the block's first record. payload is valid only during the call.
type BlockFunc func(worker int, first, records int64, payload []byte) error

// Decode fans the fetch windows out to Workers(workers) goroutines. Each
// block's CRC and record count are verified against the footer before
// fn sees it; one worker hands a window's blocks to fn in file order.
// The first failing window stops the others from starting new windows,
// and the error of the lowest failing window is returned. stats may be
// nil.
func (ix *Index) Decode(workers int, stats Stats, fn BlockFunc) error {
	if len(ix.windows) == 0 {
		return nil
	}
	n := ix.Workers(workers)
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, len(ix.windows))
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(ix.windows) {
					return
				}
				if errs[i] = ix.decodeWindow(w, ix.windows[i], &buf, stats, fn); errs[i] != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeWindow fetches one window into buf (per-worker scratch, grown
// as needed) and hands its blocks to fn.
func (ix *Index) decodeWindow(worker int, win window, buf *[]byte, stats Stats, fn BlockFunc) error {
	if int64(cap(*buf)) < win.length {
		*buf = make([]byte, win.length)
	}
	data := (*buf)[:win.length]
	if n, err := ix.ra.ReadAt(data, win.off); n < len(data) {
		return fmt.Errorf("blockio: reading blocks %d-%d (offset %d): %w", win.first, win.last, win.off, unexpectedEOF(err))
	}
	first := win.firstRecord
	for b := win.first; b <= win.last; b++ {
		blk := ix.blocks[b]
		records, payload, rest, err := parseBlock(data, stats)
		if err != nil {
			return fmt.Errorf("blockio: block %d (offset %d): %w", b, blk.Offset, err)
		}
		if records != blk.Records || int64(len(payload)) != blk.PayloadLen {
			return fmt.Errorf("blockio: block %d: header says %d records in %d bytes, footer says %d in %d",
				b, records, len(payload), blk.Records, blk.PayloadLen)
		}
		if err := fn(worker, first, records, payload); err != nil {
			return fmt.Errorf("blockio: block %d (offset %d): %w", b, blk.Offset, err)
		}
		first += records
		data = rest
	}
	if len(data) != 0 {
		return fmt.Errorf("blockio: blocks %d-%d overrun their footer lengths by %d bytes", win.first, win.last, len(data))
	}
	return nil
}

// parseBlock parses one block at the start of buf (header, CRC,
// payload), verifies the CRC, and returns the record count, the payload
// (aliasing buf) and the remaining bytes. stats may be nil.
func parseBlock(buf []byte, stats Stats) (records int64, payload, rest []byte, err error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("blockio: truncated block header")
	}
	buf = buf[n:]
	records = int64(u)
	if records == 0 {
		return 0, nil, nil, fmt.Errorf("blockio: unexpected end marker inside a fetch window")
	}
	u, n = binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("blockio: truncated payload length")
	}
	buf = buf[n:]
	payloadLen := int64(u)
	if payloadLen > maxPayloadLen || payloadLen > int64(len(buf))-4 {
		return 0, nil, nil, fmt.Errorf("blockio: payload length %d exceeds window", payloadLen)
	}
	want := binary.LittleEndian.Uint32(buf)
	payload = buf[4 : 4+payloadLen]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		if stats != nil {
			stats.CRCFailure()
		}
		return 0, nil, nil, fmt.Errorf("blockio: crc mismatch (stored %08x, computed %08x)", want, got)
	}
	if stats != nil {
		stats.ObserveBlock(len(payload), int(records))
	}
	return records, payload, buf[4+payloadLen:], nil
}

// readIndex reads the footer index from the end of a block-framed file.
// It returns the block descriptors in file order and the offset of the
// end marker, which must be the byte just before the footer.
func readIndex(ra io.ReaderAt, size int64) ([]block, int64, error) {
	if size < footerTrailerLen+1 {
		return nil, 0, fmt.Errorf("blockio: file of %d bytes cannot hold a footer", size)
	}
	var tail [footerTrailerLen]byte
	if _, err := ra.ReadAt(tail[:], size-footerTrailerLen); err != nil {
		return nil, 0, fmt.Errorf("blockio: reading footer trailer: %w", err)
	}
	if string(tail[12:]) != footerMagic {
		return nil, 0, fmt.Errorf("blockio: missing footer magic (got %q)", tail[12:])
	}
	payloadLen := int64(binary.LittleEndian.Uint64(tail[4:12]))
	if payloadLen < 1 || payloadLen > size-footerTrailerLen-1 {
		return nil, 0, fmt.Errorf("blockio: implausible footer length %d in a %d-byte file", payloadLen, size)
	}
	// Fetch the end marker with the footer: one request, not two.
	dataEnd := size - footerTrailerLen - payloadLen - 1
	footer := make([]byte, 1+payloadLen)
	if _, err := ra.ReadAt(footer, dataEnd); err != nil {
		return nil, 0, fmt.Errorf("blockio: reading footer: %w", err)
	}
	if footer[0] != 0 {
		return nil, 0, fmt.Errorf("blockio: no end marker before the footer")
	}
	footer = footer[1:]
	if got := crc32.Checksum(footer, castagnoli); got != binary.LittleEndian.Uint32(tail[0:4]) {
		return nil, 0, fmt.Errorf("blockio: footer crc mismatch")
	}
	count, n := binary.Uvarint(footer)
	if n <= 0 {
		return nil, 0, fmt.Errorf("blockio: truncated footer block count")
	}
	footer = footer[n:]
	if count > uint64(size) { // every block needs at least one byte
		return nil, 0, fmt.Errorf("blockio: implausible block count %d in a %d-byte file", count, size)
	}
	blocks := make([]block, 0, count)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		var fields [3]uint64
		for f := range fields {
			u, n := binary.Uvarint(footer)
			if n <= 0 {
				return nil, 0, fmt.Errorf("blockio: truncated footer entry %d", i)
			}
			fields[f] = u
			footer = footer[n:]
		}
		if fields[0] > uint64(size) || fields[1] > maxPayloadLen || fields[2] > maxPayloadLen {
			return nil, 0, fmt.Errorf("blockio: implausible footer entry %d", i)
		}
		blk := block{Offset: prev + int64(fields[0]), Records: int64(fields[1]), PayloadLen: int64(fields[2])}
		prev = blk.Offset
		if blk.Offset+blk.PayloadLen > size {
			return nil, 0, fmt.Errorf("blockio: footer entry %d (offset %d, payload %d) exceeds the %d-byte file", i, blk.Offset, blk.PayloadLen, size)
		}
		blocks = append(blocks, blk)
	}
	if len(footer) != 0 {
		return nil, 0, fmt.Errorf("blockio: %d trailing footer bytes", len(footer))
	}
	return blocks, dataEnd, nil
}

// unexpectedEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// block structure, running out of bytes is truncation, not a clean end.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
