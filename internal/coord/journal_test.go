package coord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"
)

// frameRecords encodes a sequence of records into one journal byte
// stream, assigning LSNs 1..n.
func frameRecords(t *testing.T, recs []record) []byte {
	t.Helper()
	var out []byte
	for i := range recs {
		recs[i].LSN = uint64(i + 1)
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		out = frameRecord(out, payload)
	}
	return out
}

func sampleRecords() []record {
	return []record{
		{Type: recSubmit, Job: "j1", Seq: 1, Spec: &SweepJob{Figure: "fig2a", Seeds: 2, Shards: 3, LeaseTTLMS: 30_000}},
		{Type: recClaim, Job: "j1", Shard: 0, Seq: 2, Token: "t2", Worker: "w1", Deadline: 1_000_030_000_000_000_000},
		{Type: recRenew, Job: "j1", Shard: 0, Token: "t2", Deadline: 1_000_060_000_000_000_000},
		{Type: recComplete, Job: "j1", Shard: 0, Worker: "w1", Cells: []byte("streamalloc-cells/v1 ...")},
		{Type: recDuplicate, Job: "j1", Shard: 0},
		{Type: recMerge, Job: "j1", Dat: []byte("# merged"), MergeNS: 12345},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	want := sampleRecords()
	data := frameRecords(t, want)
	got, valid := decodeJournal(data)
	if valid != len(data) {
		t.Fatalf("valid prefix %d, want the whole %d bytes", valid, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want[i])
		if !bytes.Equal(gj, wj) {
			t.Errorf("record %d: got %s, want %s", i, gj, wj)
		}
	}
}

// TestJournalTruncatedTail: a frame cut anywhere — header or payload —
// must yield exactly the records before it, never a partial one.
func TestJournalTruncatedTail(t *testing.T) {
	recs := sampleRecords()
	full := frameRecords(t, recs)
	// Find the byte offsets where each record's frame ends.
	var ends []int
	off := 0
	for off < len(full) {
		n := int(binary.LittleEndian.Uint32(full[off : off+4]))
		off += 8 + n
		ends = append(ends, off)
	}
	for cut := 0; cut <= len(full); cut++ {
		got, valid := decodeJournal(full[:cut])
		wantN := 0
		for _, e := range ends {
			if e <= cut {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut at %d: decoded %d records, want %d", cut, len(got), wantN)
		}
		if wantN > 0 && valid != ends[wantN-1] {
			t.Fatalf("cut at %d: valid prefix %d, want %d", cut, valid, ends[wantN-1])
		}
	}
}

// TestJournalBitFlip: flipping any single byte invalidates the record
// it lands in (checksum, length or framing) and every record after it,
// but never resurrects garbage or panics.
func TestJournalBitFlip(t *testing.T) {
	recs := sampleRecords()
	full := frameRecords(t, recs)
	clean, _ := decodeJournal(full)
	for pos := 0; pos < len(full); pos++ {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0x40
		got, valid := decodeJournal(corrupt)
		if valid > len(corrupt) {
			t.Fatalf("flip at %d: valid prefix %d beyond data", pos, valid)
		}
		if len(got) >= len(clean) {
			// The flip may land in a JSON field without breaking framing
			// only if the checksum still matches — impossible for a single
			// byte flip with CRC32.
			t.Fatalf("flip at %d: decoded %d records, corruption undetected", pos, len(got))
		}
		// Every surviving record must be one of the originals, byte-equal.
		for i := range got {
			gj, _ := json.Marshal(got[i])
			wj, _ := json.Marshal(clean[i])
			if !bytes.Equal(gj, wj) {
				t.Fatalf("flip at %d: surviving record %d differs: %s vs %s", pos, i, gj, wj)
			}
		}
	}
}

func TestJournalGarbageTail(t *testing.T) {
	recs := sampleRecords()
	full := frameRecords(t, recs)
	for _, tail := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3},     // absurd length
		{0, 0, 0, 0, 0, 0, 0, 0},                          // zero length
		bytes.Repeat([]byte{0xaa}, 100),                   // noise
		{5, 0, 0, 0, 1, 2, 3, 4, 'h', 'e', 'l', 'l', 'o'}, // bad checksum
	} {
		data := append(append([]byte(nil), full...), tail...)
		got, valid := decodeJournal(data)
		if len(got) != len(recs) || valid != len(full) {
			t.Fatalf("tail %x: decoded %d records valid %d, want %d records valid %d",
				tail, len(got), valid, len(recs), len(full))
		}
	}
}

// TestJournalNonIncreasingLSN: a replayed-back or duplicated frame
// (same or lower LSN) ends the scan — a hole or a rewind in the
// history must never be applied.
func TestJournalNonIncreasingLSN(t *testing.T) {
	recs := sampleRecords()[:2]
	full := frameRecords(t, recs)
	dup := append(append([]byte(nil), full...), full...) // LSN restarts at 1
	got, valid := decodeJournal(dup)
	if len(got) != 2 || valid != len(full) {
		t.Fatalf("duplicated journal: decoded %d records valid %d, want 2 records valid %d",
			len(got), valid, len(full))
	}
}

// FuzzJournalDecode: decodeJournal must never panic, must report a
// valid prefix bounded by the input, and re-decoding the valid prefix
// must reproduce exactly the same records (idempotent truncation —
// recovery truncates the file there and trusts the result).
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	clean := sampleRecords()
	var seedT testing.T
	full := frameRecords(&seedT, clean)
	f.Add(full)
	f.Add(full[:len(full)-3])
	flipped := append([]byte(nil), full...)
	flipped[9] ^= 0x01
	f.Add(flipped)
	f.Add(append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := decodeJournal(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of bounds [0, %d]", valid, len(data))
		}
		// Each record must frame back to a slice of the valid prefix, and
		// LSNs must be strictly increasing — a partial record can never
		// appear because its checksum cannot match.
		var last uint64
		for i := range recs {
			if recs[i].LSN <= last {
				t.Fatalf("record %d: LSN %d not above %d", i, recs[i].LSN, last)
			}
			last = recs[i].LSN
		}
		again, validAgain := decodeJournal(data[:valid])
		if validAgain != valid || len(again) != len(recs) {
			t.Fatalf("re-decode of valid prefix: %d records valid %d, want %d records valid %d",
				len(again), validAgain, len(recs), valid)
		}
	})
}

// TestGroupCommitWindow pins the group-commit window on a fake clock: a
// claim or renew appended less than syncInterval after the last fsync
// adds no JournalSyncs, one appended syncInterval or more after adds
// one, and a complete always adds one.
func TestGroupCommitWindow(t *testing.T) {
	clk := newFakeClock()
	c := openDurable(t, t.TempDir(), clk, nil)
	defer c.Close()
	id, err := c.Submit(testJob(2)) // critical: the last fsync is now
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var a, b *Lease
	steps := []struct {
		name    string
		advance time.Duration
		do      func() error
		syncs   int64
	}{
		{"claim inside the window", syncInterval - time.Millisecond,
			func() (err error) { a, err = c.Claim(id, "a"); return err }, 0},
		{"renew at the window's end", time.Millisecond,
			func() error { _, err := c.Renew(id, a.Shard, a.Token); return err }, 1},
		{"claim inside the window", syncInterval / 2,
			func() (err error) { b, err = c.Claim(id, "b"); return err }, 0},
		{"complete inside the window", 0,
			func() error { return c.Complete(id, a.Shard, a.Token, "a", shardBytes(t, a)) }, 1},
		{"renew inside the window", syncInterval - time.Millisecond,
			func() error { _, err := c.Renew(id, b.Shard, b.Token); return err }, 0},
		{"renew past the window", 2 * syncInterval,
			func() error { _, err := c.Renew(id, b.Shard, b.Token); return err }, 1},
	}
	for _, s := range steps {
		clk.Advance(s.advance)
		before := c.StatsSnapshot().JournalSyncs
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := c.StatsSnapshot().JournalSyncs - before; got != s.syncs {
			t.Fatalf("%s: %d fsyncs, want %d", s.name, got, s.syncs)
		}
	}
}
