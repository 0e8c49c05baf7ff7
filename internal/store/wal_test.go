package store_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/store"
)

func walBatch() []store.Mutation {
	body := graph.New("gb")
	a := body.AddNode("a", graph.TupleOf("", "label", "A"))
	b := body.AddNode("b", graph.TupleOf("", "label", "B"))
	body.AddEdge("e", a, b, nil)
	return []store.Mutation{
		{Op: store.OpCreateGraph, Doc: "db", Graph: "gb", Body: body},
		{Op: store.OpInsertNode, Doc: "db", Graph: "gb", Name: "c", Attrs: graph.TupleOf("t", "label", "C", "w", int64(3))},
		{Op: store.OpInsertEdge, Doc: "db", Graph: "gb", Name: "e2", From: "a", To: "c"},
		{Op: store.OpDeleteEdge, Doc: "db", Graph: "gb", Name: "e"},
		{Op: store.OpDeleteNode, Doc: "db", Graph: "gb", Name: "b"},
		{Op: store.OpDropGraph, Doc: "other", Graph: "gone"},
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, err := store.OpenWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	want := walBatch()
	if err := w.Append(7, want); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(8, want[:2]); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 {
		t.Fatalf("Records() = %d", w.Records())
	}
	w.Close()

	w2, recs, err := store.OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 2 || recs[0].Seq != 7 || recs[1].Seq != 8 {
		t.Fatalf("recovered %d records, seqs %v", len(recs), recs)
	}
	got := recs[0].Muts
	if len(got) != len(want) {
		t.Fatalf("batch length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Doc != want[i].Doc || got[i].Graph != want[i].Graph ||
			got[i].Name != want[i].Name || got[i].From != want[i].From || got[i].To != want[i].To {
			t.Fatalf("mutation %d = %+v, want %+v", i, got[i], want[i])
		}
		if want[i].Attrs.String() != got[i].Attrs.String() {
			t.Fatalf("mutation %d attrs %q, want %q", i, got[i].Attrs, want[i].Attrs)
		}
	}
	if got[0].Body == nil || got[0].Body.Signature() != want[0].Body.Signature() {
		t.Fatalf("body did not survive the round trip")
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := store.OpenWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1, walBatch()[:1])
	w.Append(2, walBatch()[:2])
	w.Close()
	intact, _ := os.ReadFile(path)

	corruptions := map[string]func([]byte) []byte{
		"torn length prefix": func(b []byte) []byte { return append(b, 0x20, 0x00) },
		"torn payload": func(b []byte) []byte {
			return append(append(b, 0x40, 0, 0, 0), []byte("short")...)
		},
		"missing crc": func(b []byte) []byte {
			return append(append(b, 5, 0, 0, 0), []byte("12345ab")...)
		},
		"flipped crc bit": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x01
			return c
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "wal.log")
			if err := os.WriteFile(p, corrupt(append([]byte(nil), intact...)), 0o644); err != nil {
				t.Fatal(err)
			}
			wantRecs := 2
			if name == "flipped crc bit" {
				wantRecs = 1 // the corruption hits record 2 itself
			}
			w, recs, err := store.OpenWAL(p, false)
			if err != nil {
				t.Fatalf("open after %s: %v", name, err)
			}
			if len(recs) != wantRecs {
				t.Fatalf("recovered %d records, want %d", len(recs), wantRecs)
			}
			// The torn tail must be gone: a fresh append then reopen yields
			// wantRecs+1 intact records.
			if err := w.Append(uint64(wantRecs+1), walBatch()[:1]); err != nil {
				t.Fatal(err)
			}
			w.Close()
			w2, recs, err := store.OpenWAL(p, false)
			if err != nil {
				t.Fatal(err)
			}
			w2.Close()
			if len(recs) != wantRecs+1 {
				t.Fatalf("after truncate+append: %d records, want %d", len(recs), wantRecs+1)
			}
		})
	}
}

func TestWALRejectsForeignAndUndecodable(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "foreign.log")
	os.WriteFile(foreign, []byte("NOPExxxx"), 0o644)
	if _, _, err := store.OpenWAL(foreign, false); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign file: err = %v", err)
	}

	// A CRC-valid but undecodable payload is a format error, not a torn
	// tail: recovery must refuse rather than drop committed data.
	bad := filepath.Join(dir, "bad.log")
	w, _, err := store.OpenWAL(bad, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, _ := os.OpenFile(bad, os.O_WRONLY|os.O_APPEND, 0)
	payload := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	f.Write(frame)
	f.Close()
	if _, _, err := store.OpenWAL(bad, false); err == nil {
		t.Fatal("undecodable CRC-valid record must fail open")
	}

	// A bad frame with CRC-valid frames after it is mid-log corruption,
	// not a torn tail: open refuses and truncates nothing. A damaged length
	// is caught by the last record ending at EOF, a damaged payload by the
	// next record starting where the length says, even when the last
	// record is torn as well.
	mid := filepath.Join(dir, "mid.log")
	w, _, err = store.OpenWAL(mid, false)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		w.Append(seq, walBatch()[:2])
	}
	w.Close()
	intact, _ := os.ReadFile(mid)
	for name, damage := range map[string]func(b []byte) []byte{
		"length prefix": func(b []byte) []byte { b[5] ^= 0x01; return b },
		"payload":       func(b []byte) []byte { b[5+4+3] ^= 0x01; return b },
		"payload, torn last record": func(b []byte) []byte {
			b[5+4+3] ^= 0x01
			return b[:len(b)-3]
		},
	} {
		flipped := damage(append([]byte(nil), intact...))
		os.WriteFile(mid, flipped, 0o644)
		if _, _, err := store.OpenWAL(mid, false); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("flip in record 1 of 3 (%s): err = %v, want a corruption refusal", name, err)
		}
		if after, _ := os.ReadFile(mid); len(after) != len(flipped) {
			t.Fatalf("flip in record 1 of 3 (%s): file truncated from %d to %d bytes", name, len(flipped), len(after))
		}
	}
}

// TestCheckpointRejectsFlippedByte: the checkpoint is fsynced before it is
// renamed into place, so no bad frame in it is a torn tail — every single
// flipped byte, header to last CRC, makes OpenDurable refuse, and so does
// a checkpoint in another format.
func TestCheckpointRejectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	sopts := store.Options{Shards: 2}
	dopts := store.DurableOptions{Dir: dir, Sync: true, CheckpointEvery: -1}
	d, err := store.OpenDurable(sopts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New("g")
	g.AddNode("a", graph.TupleOf("", "label", "ALPHA"))
	if _, err := d.RegisterDoc("db", graph.Collection{g, randomCollection(1, 5)[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RegisterDoc("aux", randomCollection(2, 6)); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	snap := filepath.Join(dir, "snapshot.bin")
	intact, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if d2, err := store.OpenDurable(sopts, dopts); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	} else {
		d2.Close()
	}
	for i := range intact {
		flipped := append([]byte(nil), intact...)
		flipped[i] ^= 0x04 // "ALPHA" reads "AHPHA" when the flip lands in the label
		os.WriteFile(snap, flipped, 0o644)
		if d2, err := store.OpenDurable(sopts, dopts); err == nil {
			d2.Close()
			t.Fatalf("checkpoint with byte %d of %d flipped loaded without error", i, len(intact))
		}
	}
	os.WriteFile(snap, append([]byte("GQLS\x01"), intact[5:]...), 0o644)
	if _, err := store.OpenDurable(sopts, dopts); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("checkpoint in the retired GQLS format: err = %v, want bad magic", err)
	}
}

func durableOpts(dir string) (store.Options, store.DurableOptions) {
	return store.Options{Shards: 4, IndexMaxLen: 2}, store.DurableOptions{
		Dir:             dir,
		Sync:            true,
		CheckpointEvery: 3,
		Bootstrap: func(s *store.DocStore) error {
			if _, ok := s.Snapshot().Doc("db"); !ok {
				s.RegisterDoc("db", randomCollection(4, 42))
			}
			return nil
		},
	}
}

// crashBatch returns the deterministic i-th mutation batch of the crash
// workload. Batches build graphs continuously, periodically delete nodes,
// drop whole graphs and replace the whole "aux" document (register
// records, followed in the same batch by a create on the fresh document),
// so recovery exercises both the incremental and full-repartition commit
// paths.
func crashBatch(i int) []store.Mutation {
	g := fmt.Sprintf("m%d", i)
	var muts []store.Mutation
	if i%3 == 1 {
		muts = append(muts, store.Mutation{Op: store.OpRegisterDoc, Doc: "aux", Coll: randomCollection(3, int64(i))})
	}
	muts = append(muts, []store.Mutation{
		{Op: store.OpCreateGraph, Doc: "db", Graph: g, Attrs: graph.TupleOf("", "batch", int64(i))},
		{Op: store.OpInsertNode, Doc: "db", Graph: g, Name: "a", Attrs: graph.TupleOf("", "label", "A")},
		{Op: store.OpInsertNode, Doc: "db", Graph: g, Name: "b", Attrs: graph.TupleOf("", "label", "B")},
		{Op: store.OpInsertEdge, Doc: "db", Graph: g, Name: "e", From: "a", To: "b"},
		{Op: store.OpCreateGraph, Doc: "aux", Graph: g},
	}...)
	if i > 4 && i%4 == 0 {
		muts = append(muts, store.Mutation{Op: store.OpDeleteNode, Doc: "db", Graph: fmt.Sprintf("m%d", i-1), Name: "a"})
	}
	if i > 7 && i%7 == 0 {
		muts = append(muts, store.Mutation{Op: store.OpDropGraph, Doc: "db", Graph: fmt.Sprintf("m%d", i-2)})
	}
	return muts
}

func storeFingerprint(t *testing.T, s *store.DocStore) string {
	t.Helper()
	snap := s.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "version=%d\n", snap.Version())
	names := snap.Docs()
	sort.Strings(names)
	for _, name := range names {
		d, _ := snap.Doc(name)
		fmt.Fprintf(&sb, "doc %s v%d hash=%s\n", name, d.Version(), d.ContentHash())
		for _, g := range d.Collection() {
			fmt.Fprintf(&sb, "  graph %s: %s\n", g.Name, g.Signature())
		}
	}
	return sb.String()
}

// TestDurableRecovery is the in-process recovery test: apply batches
// (crossing several automatic checkpoints), close, reopen, and require
// the recovered store to fingerprint identically to an in-memory oracle
// that applied the same batches.
func TestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	sopts, dopts := durableOpts(dir)
	d, err := store.OpenDurable(sopts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 1; i <= n; i++ {
		if _, err := d.ApplyBatch(context.Background(), crashBatch(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	want := storeFingerprint(t, d)
	d.Close()

	// CheckpointEvery=3 means recovery combines a snapshot with a WAL
	// suffix — both paths must contribute.
	d2, err := store.OpenDurable(sopts, dopts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if got := storeFingerprint(t, d2); got != want {
		t.Fatalf("recovered state diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	// Oracle: same bootstrap + batches, never persisted.
	oracle := store.New(sopts)
	dopts.Bootstrap(oracle)
	for i := 1; i <= n; i++ {
		if _, err := oracle.ApplyBatch(context.Background(), crashBatch(i)); err != nil {
			t.Fatalf("oracle batch %d: %v", i, err)
		}
	}
	if got := storeFingerprint(t, oracle); got != want {
		t.Fatalf("oracle diverged from durable store:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestDurableRefusesNonDeterministicBootstrap(t *testing.T) {
	dir := t.TempDir()
	sopts, dopts := durableOpts(dir)
	dopts.CheckpointEvery = -1 // keep everything in the WAL
	d, err := store.OpenDurable(sopts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(context.Background(), crashBatch(1)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// A bootstrap that registers an extra document shifts the version
	// sequence; replay must refuse instead of guessing.
	bad := dopts
	bad.Bootstrap = func(s *store.DocStore) error {
		dopts.Bootstrap(s)
		s.RegisterDoc("sneaky", randomCollection(1, 1))
		return nil
	}
	if _, err := store.OpenDurable(sopts, bad); err == nil || !strings.Contains(err.Error(), "non-deterministic bootstrap") {
		t.Fatalf("err = %v, want non-deterministic bootstrap refusal", err)
	}
}

// TestWALCrashRecovery is the kill-and-restart acceptance test: a child
// process applies the deterministic crash workload with fsync-per-append
// durability, reporting each acknowledged batch on stdout; the parent
// SIGKILLs it mid-stream, reopens the durability directory, and requires
// (a) every acknowledged batch to have survived and (b) the recovered
// store to fingerprint byte-identically to an oracle that applied the
// same batches in memory.
func TestWALCrashRecovery(t *testing.T) {
	if dir := os.Getenv("GQLDB_WAL_CRASH_DIR"); dir != "" {
		walCrashChild(dir)
		return
	}
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWALCrashRecovery$", "-test.v")
	cmd.Env = append(os.Environ(), "GQLDB_WAL_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "ACK ") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(line, "ACK "))
		if err != nil {
			t.Fatalf("bad ack line %q", line)
		}
		acked = n
		if acked >= 7 {
			// Kill with a batch very likely in flight.
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	cmd.Wait()
	if acked < 7 {
		t.Fatalf("child died early: only %d acked batches", acked)
	}

	sopts, dopts := durableOpts(dir)
	d, err := store.OpenDurable(sopts, dopts)
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer d.Close()
	// Bootstrap commits version 1; batch i commits as version 1+i.
	recovered := int(d.Version()) - 1
	if recovered < acked {
		t.Fatalf("recovered %d batches, but child acked %d — durable batches lost", recovered, acked)
	}
	oracle := store.New(sopts)
	dopts.Bootstrap(oracle)
	for i := 1; i <= recovered; i++ {
		if _, err := oracle.ApplyBatch(context.Background(), crashBatch(i)); err != nil {
			t.Fatalf("oracle batch %d: %v", i, err)
		}
	}
	want, got := storeFingerprint(t, oracle), storeFingerprint(t, d)
	if want != got {
		t.Fatalf("post-crash state diverged from oracle:\n--- oracle ---\n%s--- recovered ---\n%s", want, got)
	}
	t.Logf("killed after %d acked batches, recovered %d, fingerprints identical", acked, recovered)
}

// walCrashChild runs in the subprocess: apply the crash workload with
// durable acknowledgements until killed.
func walCrashChild(dir string) {
	sopts, dopts := durableOpts(dir)
	d, err := store.OpenDurable(sopts, dopts)
	if err != nil {
		fmt.Println("CHILD-ERR", err)
		os.Exit(1)
	}
	for i := 1; i <= 10000; i++ {
		if _, err := d.ApplyBatch(context.Background(), crashBatch(i)); err != nil {
			fmt.Println("CHILD-ERR", err)
			os.Exit(1)
		}
		fmt.Printf("ACK %d\n", i)
	}
}

// TestDurableRuntimeRegister: a RegisterDoc on an open durable store is a
// logged batch like any other, so the document survives reopen — alone,
// and followed by a mutation batch whose record must still follow the
// store version on replay.
func TestDurableRuntimeRegister(t *testing.T) {
	for _, then := range []string{"alone", "then_batch"} {
		t.Run(then, func(t *testing.T) {
			sopts, dopts := durableOpts(t.TempDir())
			dopts.CheckpointEvery = -1 // recovery must come from the WAL
			d, err := store.OpenDurable(sopts, dopts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.RegisterDoc("runtime", randomCollection(5, 7)); err != nil {
				t.Fatal(err)
			}
			if then == "then_batch" {
				if _, err := d.ApplyBatch(context.Background(), crashBatch(2)); err != nil {
					t.Fatal(err)
				}
			}
			want := storeFingerprint(t, d)
			d.Close()

			d2, err := store.OpenDurable(sopts, dopts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			if _, ok := d2.Snapshot().Doc("runtime"); !ok {
				t.Fatal("runtime registration lost on reopen")
			}
			if got := storeFingerprint(t, d2); got != want {
				t.Fatalf("recovered state diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}
