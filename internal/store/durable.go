// Durability: OpenDurable recovers a DocStore from a directory and then
// attaches the directory's write-ahead log, after which every ApplyBatch —
// RegisterDoc included — is appended (and, under the Sync policy, fsynced)
// before it commits in memory, so an acknowledged write survives a crash.
// Recovery rebuilds the exact pre-crash state as replay(checkpoint) ∘
// bootstrap ∘ replay(WAL):
//
//  1. the checkpoint (if any) is a compacted log in the WAL's own format:
//     one record per document version, in ascending order, registering
//     every document committed at that version. Each record replays
//     through the commit path at its own version, so the store ends at the
//     last record's version (every commit stamps at least one document,
//     and no mutation removes one);
//  2. Bootstrap registers the process's startup documents — it must be
//     deterministic across restarts and skip names the checkpoint already
//     restored, so the post-bootstrap version is reproducible;
//  3. WAL records with Seq beyond the checkpoint replay the same way, each
//     required to commit as exactly the next version — a gap or overlap
//     means the bootstrap diverged and recovery refuses to guess.
//
// The log is attached only after step 3, so bootstrap and replay are
// never logged again.
//
// Checkpointing writes the compacted log to snapshot.tmp, fsyncs, renames
// it over snapshot.bin and then truncates the WAL, so a crash at any point
// leaves either the old checkpoint + full log or the new checkpoint +
// empty log. The rename follows the fsync, so any bad frame in a
// checkpoint is corruption, never a torn tail.
package store

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gqldb/internal/obs"
)

const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.bin"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the durability directory, holding wal.log and snapshot.bin.
	// Created if absent.
	Dir string
	// Sync fsyncs the WAL on every append, making mutations durable before
	// they are acknowledged. Off trades crash durability of the last few
	// batches for throughput (the OS flushes on its own schedule).
	Sync bool
	// CheckpointEvery checkpoints and truncates the WAL once it holds this
	// many records. 0 takes the default (256); negative disables automatic
	// checkpoints (Checkpoint can still be called explicitly).
	CheckpointEvery int
	// Bootstrap registers the process's startup documents on the fresh
	// store before WAL replay. It must be deterministic across restarts
	// and must skip document names already present (restored by the
	// checkpoint), or recovery will refuse the log.
	Bootstrap func(*DocStore) error
}

// OpenDurable opens (or creates) a durable store in dopts.Dir, recovering
// checkpoint + WAL state into a store configured by sopts, and attaches
// the WAL to it. Close the store to close the log.
func OpenDurable(sopts Options, dopts DurableOptions) (*DocStore, error) {
	if dopts.Dir == "" {
		return nil, fmt.Errorf("store: durable: no directory configured")
	}
	if err := os.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: durable: %w", err)
	}
	if dopts.CheckpointEvery == 0 {
		dopts.CheckpointEvery = 256
	}
	s := New(sopts)
	checkpointVersion, err := loadCheckpoint(s, filepath.Join(dopts.Dir, snapFileName))
	if err != nil {
		return nil, err
	}
	if dopts.Bootstrap != nil {
		if err := dopts.Bootstrap(s); err != nil {
			return nil, fmt.Errorf("store: durable: bootstrap: %w", err)
		}
	}
	wal, recs, err := OpenWAL(filepath.Join(dopts.Dir, walFileName), dopts.Sync)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		v := s.Version()
		if rec.Seq <= checkpointVersion {
			// Already captured by the checkpoint. Only the checkpoint may
			// cover a record: a version merely inflated by extra bootstrap
			// registrations must not swallow committed batches.
			continue
		}
		if rec.Seq != v+1 {
			wal.Close()
			return nil, fmt.Errorf("store: durable: wal record %d does not follow store version %d (non-deterministic bootstrap?)", rec.Seq, v)
		}
		if err := s.replay(rec); err != nil {
			wal.Close()
			return nil, fmt.Errorf("store: durable: replaying wal record %d: %w", rec.Seq, err)
		}
		obs.WALReplayed.Inc()
	}
	s.wal, s.dir, s.checkpointEvery = wal, dopts.Dir, dopts.CheckpointEvery
	return s, nil
}

// Checkpoint writes the current store state to the snapshot file and
// truncates the WAL. A store without a WAL has nowhere to checkpoint to.
func (s *DocStore) Checkpoint() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: checkpoint: no write-ahead log attached")
	}
	return s.checkpointLocked()
}

// WALRecords returns the number of records currently in the WAL (0 without
// one).
func (s *DocStore) WALRecords() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.wal == nil {
		return 0
	}
	return s.wal.Records()
}

// Close checkpoints nothing and closes the WAL file, if one is attached;
// the store remains usable for reads, and later writes fail.
func (s *DocStore) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

func (s *DocStore) checkpointLocked() error {
	tmp := filepath.Join(s.dir, snapFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = writeCheckpoint(f, s.Snapshot())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, snapFileName))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename must be durable before the log it replaces is emptied.
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	obs.WALCheckpoints.Inc()
	return nil
}

// writeCheckpoint writes snap as a compacted log: the log header, then
// per document version, ascending, one record registering every document
// committed at that version.
func writeCheckpoint(w io.Writer, snap *Snapshot) error {
	byVersion := make(map[uint64][]Mutation)
	for _, name := range snap.Docs() {
		d := snap.docs[name]
		byVersion[d.version] = append(byVersion[d.version], Mutation{Op: OpRegisterDoc, Doc: name, Coll: d.coll})
	}
	versions := make([]uint64, 0, len(byVersion))
	for v := range byVersion {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	buf := append([]byte(nil), logHeader...)
	for _, v := range versions {
		var err error
		if buf, err = appendFrame(buf, v, byVersion[v]); err != nil {
			return err
		}
	}
	_, err := w.Write(buf)
	return err
}

// loadCheckpoint replays the checkpoint at path into the fresh store s and
// returns the restored store version; a missing file is a fresh start at
// version 0.
func loadCheckpoint(s *DocStore, path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: durable: %w", err)
	}
	recs, _, err := readLog(data, path, false)
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if rec.Seq <= s.Version() {
			return 0, fmt.Errorf("store: durable: checkpoint record %d does not follow version %d", rec.Seq, s.Version())
		}
		if err := s.replay(rec); err != nil {
			return 0, fmt.Errorf("store: durable: replaying checkpoint record %d: %w", rec.Seq, err)
		}
	}
	return s.Version(), nil
}

// replay commits one logged batch at exactly its logged version. Recovery
// only: before the store is shared and before the log is attached.
func (s *DocStore) replay(rec WALRecord) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st, err := s.stageApply(context.Background(), rec.Muts)
	if err != nil {
		return err
	}
	s.commitApply(st, rec.Seq)
	return nil
}
