package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// rec builds a one-op record at the given epoch, with the epoch baked
// into the fact so replays are distinguishable.
func rec(epoch uint64) Record {
	return Record{Epoch: epoch, Ops: []Op{{
		Pred: "e", Args: []string{fmt.Sprintf("k%d", epoch), "v"},
	}}}
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func readAll(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var got []Record
	if err := l.ReadFrom(from, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("ReadFrom(%d): %v", from, err)
	}
	return got
}

func epochs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Epoch
	}
	return out
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	want := []Record{
		{Epoch: 1, Ops: []Op{{Pred: "e", Args: []string{"a", "b"}}}},
		{Epoch: 2, Ops: []Op{
			{Pred: "e", Args: []string{"b", "c"}},
			{Retract: true, Pred: "e", Args: []string{"a", "b"}},
		}},
		{Epoch: 3, Ops: []Op{{Pred: "unary", Args: []string{"x"}}}},
		{Epoch: 4, Ops: nil}, // epoch-only record (net-no-change replays)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got := readAll(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Epoch != want[i].Epoch || !reflect.DeepEqual(append([]Op{}, got[i].Ops...), append([]Op{}, want[i].Ops...)) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := readAll(t, l, 2); !reflect.DeepEqual(epochs(got), []uint64{3, 4}) {
		t.Errorf("ReadFrom(2) epochs = %v, want [3 4]", epochs(got))
	}
	if got := readAll(t, l, 4); len(got) != 0 {
		t.Errorf("ReadFrom(4) returned %d records, want 0", len(got))
	}
	if l.LastEpoch() != 4 {
		t.Errorf("LastEpoch = %d, want 4", l.LastEpoch())
	}
}

func TestAppendRejectsNonMonotonicEpoch(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Append(rec(5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(5)); err == nil {
		t.Error("appending a duplicate epoch succeeded")
	}
	if err := l.Append(rec(4)); err == nil {
		t.Error("appending a past epoch succeeded")
	}
	if err := l.Append(rec(6)); err != nil {
		t.Errorf("appending the next epoch failed: %v", err)
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for e := uint64(1); e <= 20; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	if l2.LastEpoch() != 20 {
		t.Fatalf("LastEpoch after reopen = %d, want 20", l2.LastEpoch())
	}
	if got := readAll(t, l2, 10); len(got) != 10 || got[0].Epoch != 11 {
		t.Fatalf("ReadFrom(10) after reopen: %v", epochs(got))
	}
	// And the reopened log accepts appends.
	if err := l2.Append(rec(21)); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for e := uint64(1); e <= 12; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("only %d segments with a 64-byte rotation threshold", n)
	}
	if got := epochs(readAll(t, l, 0)); len(got) != 12 || got[0] != 1 || got[11] != 12 {
		t.Fatalf("multi-segment replay epochs = %v", got)
	}
	// Reopen across segments too.
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	if got := epochs(readAll(t, l2, 5)); len(got) != 7 || got[0] != 6 {
		t.Fatalf("reopened multi-segment ReadFrom(5) = %v", got)
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return matches[len(matches)-1]
}

func TestTornTailTruncated(t *testing.T) {
	// A crash mid-append can leave any suffix of the final frame
	// missing. Cut the file at every length in the torn range and check
	// recovery lands on the previous record each time.
	base := t.TempDir()
	l := mustOpen(t, Options{Dir: base})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	goodLen := func() int64 {
		seg := lastSegment(t, base)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}()
	if err := l.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segBytes, err := os.ReadFile(lastSegment(t, base))
	if err != nil {
		t.Fatal(err)
	}

	for cut := goodLen + 1; cut < int64(len(segBytes)); cut++ {
		dir := t.TempDir()
		seg := filepath.Join(dir, filepath.Base(lastSegment(t, base)))
		if err := os.WriteFile(seg, segBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		if l2.LastEpoch() != 1 {
			t.Fatalf("cut at %d: LastEpoch = %d, want 1", cut, l2.LastEpoch())
		}
		if got := epochs(readAll(t, l2, 0)); !reflect.DeepEqual(got, []uint64{1}) {
			t.Fatalf("cut at %d: replay = %v, want [1]", cut, got)
		}
		// The torn bytes are gone from disk and the log appends cleanly
		// over the truncation point.
		if err := l2.Append(rec(2)); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if got := epochs(readAll(t, l2, 0)); !reflect.DeepEqual(got, []uint64{1, 2}) {
			t.Fatalf("cut at %d: replay after append = %v", cut, got)
		}
		l2.Close()
	}
}

func TestCorruptPayloadTruncatedAtTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a payload byte in the final frame: the CRC check must reject
	// it and recovery truncates back to record 1.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	if l2.LastEpoch() != 1 {
		t.Fatalf("LastEpoch after CRC corruption = %d, want 1", l2.LastEpoch())
	}
}

func TestCorruptionInEarlierSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for e := uint64(1); e <= 8; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatal("test needs at least two segments")
	}
	l.Close()
	matches, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	first := matches[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 64}); err == nil {
		t.Fatal("open succeeded despite corruption in a sealed segment")
	}
}

func TestOversizeLengthHeaderIsTorn(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append a frame header claiming an absurd payload length; recovery
	// must treat it as torn, not try to allocate it.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordBytes+1)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2 := mustOpen(t, Options{Dir: dir})
	if l2.LastEpoch() != 1 {
		t.Fatalf("LastEpoch = %d, want 1", l2.LastEpoch())
	}
}

func TestSnapshotTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for e := uint64(1); e <= 10; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	epoch, err := l.WriteSnapshot(func(w io.Writer) (uint64, error) {
		_, werr := io.WriteString(w, "e(snapshotted, state).\n")
		return 10, werr
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 10 {
		t.Fatalf("snapshot epoch = %d, want 10", epoch)
	}
	if after := l.Segments(); after >= before {
		t.Errorf("snapshot kept %d of %d segments", after, before)
	}
	if l.SizeSinceSnapshot() != 0 {
		t.Errorf("SizeSinceSnapshot = %d after snapshot", l.SizeSinceSnapshot())
	}
	path, snapEpoch, ok := l.Snapshot()
	if !ok || snapEpoch != 10 {
		t.Fatalf("Snapshot() = %q, %d, %v", path, snapEpoch, ok)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), "snapshotted") {
		t.Fatalf("snapshot content = %q, %v", data, err)
	}

	// Replay from a truncated position must refuse with ErrGone...
	if err := l.ReadFrom(0, func(Record) error { return nil }); !errors.Is(err, ErrGone) {
		t.Fatalf("ReadFrom(0) after truncation = %v, want ErrGone", err)
	}
	// ...while replay from the snapshot epoch (or any retained record)
	// still works, including across a reopen.
	if got := readAll(t, l, 10); len(got) != 0 {
		t.Fatalf("ReadFrom(10) = %v", epochs(got))
	}
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	if p2, e2, ok := l2.Snapshot(); !ok || e2 != 10 || p2 != path {
		t.Fatalf("reopened Snapshot() = %q, %d, %v", p2, e2, ok)
	}
	if l2.LastEpoch() != 10 {
		t.Fatalf("reopened LastEpoch = %d, want 10", l2.LastEpoch())
	}
	if err := l2.Append(rec(11)); err != nil {
		t.Fatal(err)
	}
	if got := epochs(readAll(t, l2, 10)); !reflect.DeepEqual(got, []uint64{11}) {
		t.Fatalf("post-snapshot replay = %v, want [11]", got)
	}
}

func TestSnapshotReplacesOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	snap := func(epoch uint64) {
		t.Helper()
		if err := l.Append(rec(epoch)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.WriteSnapshot(func(w io.Writer) (uint64, error) {
			return epoch, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap(1)
	snap(2)
	matches, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(matches) != 1 {
		t.Fatalf("expected exactly one snapshot on disk, found %v", matches)
	}
	if _, epoch, _ := l.Snapshot(); epoch != 2 {
		t.Fatalf("snapshot epoch = %d, want 2", epoch)
	}
}

func TestFailedSnapshotLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := l.WriteSnapshot(func(io.Writer) (uint64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot error = %v, want boom", err)
	}
	if _, _, ok := l.Snapshot(); ok {
		t.Error("failed snapshot was recorded")
	}
	if got := epochs(readAll(t, l, 0)); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("replay after failed snapshot = %v", got)
	}
	// The temp file must not linger for the next Open to trip over.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

func TestUpdatesBroadcast(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	ch := l.Updates()
	select {
	case <-ch:
		t.Fatal("updates channel fired before any append")
	default:
	}
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("updates channel did not fire on append")
	}
}

func TestSyncPolicies(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncAlways, "always": SyncAlways, "rotate": SyncRotate, "none": SyncRotate,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}

	// SyncRotate still yields a fully readable log after Close (which
	// syncs), and the fsync observer fires for SyncAlways appends.
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Sync: SyncRotate})
	for e := uint64(1); e <= 5; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir, Sync: SyncRotate})
	if l2.LastEpoch() != 5 {
		t.Fatalf("SyncRotate LastEpoch after reopen = %d", l2.LastEpoch())
	}

	fsyncs := 0
	la := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	la.SetFsyncObserver(func(time.Duration) { fsyncs++ })
	if err := la.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if fsyncs == 0 {
		t.Error("SyncAlways append did not fsync")
	}
}

func TestTailConcurrentWithAppend(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	const last = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := uint64(2); e <= last; e++ {
			if err := l.Append(rec(e)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// One long-lived cursor drives through the append storm: across all
	// its reads it must see every epoch exactly once, gap-free.
	tail := l.Tail(0)
	defer tail.Close()
	var prev uint64
	for prev < last {
		ch := l.Updates()
		if err := tail.Next(func(r Record) error {
			if r.Epoch != prev+1 {
				return fmt.Errorf("epoch %d after %d", r.Epoch, prev)
			}
			prev = r.Epoch
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if prev < last {
			select {
			case <-ch:
			case <-done:
				if l.LastEpoch() != last {
					t.Fatalf("appender stopped at epoch %d", l.LastEpoch())
				}
			}
		}
	}
	<-done
}

// appendRange appends rec(from) through rec(to).
func appendRange(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for e := from; e <= to; e++ {
		if err := l.Append(rec(e)); err != nil {
			t.Fatal(err)
		}
	}
}

// tailNext runs one Next and returns the epochs it delivered.
func tailNext(t *testing.T, tail *Tail) []uint64 {
	t.Helper()
	var got []uint64
	if err := tail.Next(func(r Record) error {
		got = append(got, r.Epoch)
		return nil
	}); err != nil {
		t.Fatalf("Next: %v", err)
	}
	return got
}

func span(from, to uint64) []uint64 {
	var out []uint64
	for e := from; e <= to; e++ {
		out = append(out, e)
	}
	return out
}

func TestTailResumesAcrossAppends(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	appendRange(t, l, 1, 1000)
	tail := l.Tail(1)
	defer tail.Close()
	if got := tailNext(t, tail); !reflect.DeepEqual(got, span(2, 1000)) {
		t.Fatalf("first read delivered %d records", len(got))
	}
	if got := tailNext(t, tail); len(got) != 0 {
		t.Fatalf("read with nothing appended = %v", got)
	}
	// Each read delivers exactly the new records and, however long the
	// log, decodes only their frames.
	next := uint64(1001)
	for _, k := range []uint64{1, 5, 17} {
		appendRange(t, l, next, next+k-1)
		tail.read = 0
		if got := tailNext(t, tail); !reflect.DeepEqual(got, span(next, next+k-1)) || tail.read != int(k) {
			t.Fatalf("after %d appends: read %v decoding %d frames", k, got, tail.read)
		}
		next += k
	}
}

func TestTailCrossesRotation(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 64})
	tail := l.Tail(0)
	defer tail.Close()
	var got []uint64
	for next := uint64(1); next <= 30; next += 3 {
		appendRange(t, l, next, next+2)
		got = append(got, tailNext(t, tail)...)
	}
	if l.Segments() < 5 {
		t.Fatalf("only %d segments with a 64-byte rotation threshold", l.Segments())
	}
	if !reflect.DeepEqual(got, span(1, 30)) {
		t.Fatalf("epochs across rotation = %v", got)
	}
}

func TestTailAtLastEpochReadsNothing(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	appendRange(t, l, 1, 50)
	tail := l.Tail(l.LastEpoch())
	defer tail.Close()
	if got := tailNext(t, tail); len(got) != 0 || tail.read != 0 || tail.f != nil {
		t.Fatalf("caught-up cursor delivered %v, decoded %d frames, file open %v", got, tail.read, tail.f != nil)
	}
	appendRange(t, l, 51, 51)
	if got := tailNext(t, tail); !reflect.DeepEqual(got, []uint64{51}) || tail.read != 1 {
		t.Fatalf("after one append: delivered %v decoding %d frames", got, tail.read)
	}
}

func TestTailAcrossSnapshotTruncation(t *testing.T) {
	// Park a cursor at every position of a multi-segment log, then
	// snapshot below, at and past it. The cursor must report ErrGone
	// exactly when a one-shot ReadFrom of its position does — only when
	// an undelivered epoch is gone — and otherwise deliver the rest.
	const last = 12
	stop := errors.New("stop")
	sawGone := false
	for pos := uint64(1); pos < last; pos++ {
		for _, snap := range []uint64{pos - 1, pos, pos + 1, pos + 4} {
			l := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 64})
			appendRange(t, l, 1, last)
			tail := l.Tail(0)
			if err := tail.Next(func(r Record) error {
				if r.Epoch > pos {
					return stop
				}
				return nil
			}); !errors.Is(err, stop) {
				t.Fatalf("parking the cursor at %d: %v", pos, err)
			}
			if _, err := l.WriteSnapshot(func(io.Writer) (uint64, error) { return snap, nil }); err != nil {
				t.Fatal(err)
			}
			wantGone := errors.Is(l.ReadFrom(pos, func(Record) error { return nil }), ErrGone)
			if wantGone && snap <= pos {
				t.Fatalf("snapshot at %d truncated epochs above %d", snap, pos)
			}
			var got []uint64
			err := tail.Next(func(r Record) error {
				got = append(got, r.Epoch)
				return nil
			})
			switch {
			case wantGone:
				sawGone = true
				if !errors.Is(err, ErrGone) {
					t.Fatalf("cursor at %d, snapshot %d: err %v, want ErrGone", pos, snap, err)
				}
			case err != nil || !reflect.DeepEqual(got, span(pos+1, last)):
				t.Fatalf("cursor at %d, snapshot %d: delivered %v, err %v", pos, snap, got, err)
			}
			tail.Close()
			l.Close()
		}
	}
	if !sawGone {
		t.Fatal("no snapshot truncated an undelivered epoch; the ErrGone path went untested")
	}
}

// goldenRecords are the records in testdata/v1, a log an earlier
// release wrote with SegmentBytes 96.
func goldenRecords() []Record {
	return []Record{
		{Epoch: 3, Ops: []Op{{Pred: "e", Args: []string{"a", "b"}}}},
		{Epoch: 4, Ops: []Op{{Pred: "e", Args: []string{"b", "c"}}, {Retract: true, Pred: "e", Args: []string{"a", "b"}}}},
		{Epoch: 5, Ops: []Op{{Pred: "unary", Args: []string{"x"}}}},
		{Epoch: 6, Ops: []Op{}},
		{Epoch: 7, Ops: []Op{{Pred: "wide", Args: []string{"ünïcode", "", "a long argument that needs a two-byte uvarint length prefix because it runs past one hundred and twenty-seven bytes of text, which takes a little while to type out"}}}},
		{Epoch: 300, Ops: []Op{{Retract: true, Pred: "nullary", Args: []string{}}}},
	}
}

func TestOnDiskFormatUnchanged(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("testdata", "v1", segPrefix+"*"+segSuffix))
	if err != nil || len(golden) != 3 {
		t.Fatalf("golden segments: %v, %v", golden, err)
	}
	// The golden log opens and replays to the records it holds...
	old := t.TempDir()
	for _, g := range golden {
		data, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(old, filepath.Base(g)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := mustOpen(t, Options{Dir: old, SegmentBytes: 96})
	want := goldenRecords()
	if got := readAll(t, l, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden replay = %+v", got)
	}
	// ...and appending the same records writes byte-identical segments.
	dir := t.TempDir()
	nl := mustOpen(t, Options{Dir: dir, SegmentBytes: 96})
	for _, r := range want {
		if err := nl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range golden {
		wantBytes, _ := os.ReadFile(g)
		gotBytes, err := os.ReadFile(filepath.Join(dir, filepath.Base(g)))
		if err != nil || !reflect.DeepEqual(gotBytes, wantBytes) {
			t.Fatalf("segment %s differs from the golden bytes (%v)", filepath.Base(g), err)
		}
	}
}

// BenchmarkTail appends one record and tails it through a long-lived
// cursor, at several log sizes; ns/record must not grow with the size.
func BenchmarkTail(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		l, err := Open(Options{Dir: b.TempDir(), Sync: SyncRotate})
		if err != nil {
			b.Fatal(err)
		}
		for e := 1; e <= size; e++ {
			if err := l.Append(rec(uint64(e))); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			tail := l.Tail(l.LastEpoch())
			defer tail.Close()
			delivered := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(rec(l.LastEpoch() + 1)); err != nil {
					b.Fatal(err)
				}
				if err := tail.Next(func(Record) error { delivered++; return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/record")
		})
		l.Close()
	}
}
