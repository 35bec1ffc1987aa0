package profile

// Native fuzz target for the raw profile-log parser. Seeds come from the
// deterministic synthetic generator, each also with its "DMPL" header
// stripped (which both parsers must reject), so the fuzzer mutates from
// deep inside the valid format space. The property under test: the
// index-driven parallel parser is stricter than the streaming one (it
// needs the footer) but never looser — whatever it accepts, the serial
// parser accepts with the identical summary.

import (
	"bytes"
	"testing"
)

func FuzzParseLog(f *testing.F) {
	var logs [][]byte
	for _, records := range []int{0, 1, 1000} {
		var buf bytes.Buffer
		if err := WriteSyntheticLog(&buf, records, 7); err != nil {
			f.Fatal(err)
		}
		logs = append(logs, buf.Bytes())
		f.Add(buf.Bytes()[len(logMagic)+1:])
	}
	for _, data := range logs {
		f.Add(data)
	}
	f.Add([]byte(logMagic + "\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseLog(bytes.NewReader(data))
		for _, workers := range []int{1, 4} {
			p, perr := ParseLogParallel(bytes.NewReader(data), int64(len(data)), workers, nil)
			if perr != nil {
				continue
			}
			if err != nil {
				t.Fatalf("workers=%d: parallel accepted input the serial parser rejects: %v", workers, err)
			}
			if !SameSummary(p, s) {
				t.Fatalf("workers=%d: parallel summary diverged from serial", workers)
			}
		}
	})
}
