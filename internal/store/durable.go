// Durability: OpenDurable recovers a DocStore from a directory and then
// attaches the directory's write-ahead log, after which every ApplyBatch —
// RegisterDoc included — is appended (and, under the Sync policy, fsynced)
// before it commits in memory, so an acknowledged write survives a crash.
// Recovery rebuilds the exact pre-crash state:
//
//  1. the snapshot checkpoint (if any) seeds the document map and store
//     version wholesale;
//  2. Bootstrap registers the process's startup documents — it must be
//     deterministic across restarts and skip names the checkpoint already
//     restored, so the post-bootstrap version is reproducible;
//  3. WAL records with Seq beyond the current version replay through
//     ApplyBatch, each required to commit as exactly its recorded version
//     — a gap or overlap means the bootstrap diverged and recovery refuses
//     to guess.
//
// The log is attached only after step 3, so bootstrap and replay are
// never logged again.
//
// Checkpointing writes the whole store (binary collections plus document
// versions) to snapshot.tmp, fsyncs, renames over snapshot.bin and then
// truncates the WAL, so a crash at any point leaves either the old
// checkpoint + full log or the new checkpoint + empty log.
package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gqldb/internal/graph"
	"gqldb/internal/obs"
)

const (
	snapshotMagic   = "GQLS"
	snapshotVersion = 1
	walFileName     = "wal.log"
	snapFileName    = "snapshot.bin"
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
		if _, err := s.ApplyBatch(context.Background(), rec.Muts); err != nil {
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
	snap := s.Snapshot()
	tmp := filepath.Join(s.dir, snapFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeCheckpoint(f, snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapFileName)); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	obs.WALCheckpoints.Inc()
	return nil
}

// writeCheckpoint serializes the snapshot: magic, format version, store
// version, then each document (sorted by name for determinism) as name,
// install version, and a length-prefixed GQLB collection.
func writeCheckpoint(w io.Writer, snap *Snapshot) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	bw.WriteByte(snapshotVersion)
	uv(snap.Version())
	names := snap.Docs()
	uv(uint64(len(names)))
	for _, name := range names {
		doc, _ := snap.Doc(name)
		uv(uint64(len(name)))
		bw.WriteString(name)
		uv(doc.Version())
		var gb bytes.Buffer
		if err := graph.WriteBinary(&gb, doc.Collection()); err != nil {
			return err
		}
		uv(uint64(gb.Len()))
		if _, err := bw.Write(gb.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// loadCheckpoint seeds s from the snapshot file and returns the restored
// store version; a missing file is a fresh start at version 0.
func loadCheckpoint(s *DocStore, path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: durable: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, fmt.Errorf("store: durable: checkpoint header: %w", err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return 0, fmt.Errorf("store: durable: bad checkpoint magic %q", hdr[:len(snapshotMagic)])
	}
	if hdr[len(snapshotMagic)] != snapshotVersion {
		return 0, fmt.Errorf("store: durable: unsupported checkpoint version %d", hdr[len(snapshotMagic)])
	}
	storeVersion, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("store: durable: checkpoint: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("store: durable: checkpoint: %w", err)
	}
	if count > 1<<20 {
		return 0, fmt.Errorf("store: durable: implausible checkpoint document count %d", count)
	}
	docs := make(map[string]*Doc, count)
	for i := uint64(0); i < count; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("store: durable: checkpoint: %w", err)
		}
		if nameLen > 1<<20 {
			return 0, fmt.Errorf("store: durable: implausible document name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return 0, fmt.Errorf("store: durable: checkpoint: %w", err)
		}
		docVersion, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("store: durable: checkpoint: %w", err)
		}
		collLen, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("store: durable: checkpoint: %w", err)
		}
		if collLen > 1<<32 {
			return 0, fmt.Errorf("store: durable: implausible collection length %d", collLen)
		}
		gb := make([]byte, collLen)
		if _, err := io.ReadFull(br, gb); err != nil {
			return 0, fmt.Errorf("store: durable: checkpoint: %w", err)
		}
		coll, err := graph.ReadBinary(bytes.NewReader(gb))
		if err != nil {
			return 0, fmt.Errorf("store: durable: checkpoint document %q: %w", nameBuf, err)
		}
		b := NewDocBuilder(string(nameBuf), s.opts.Shards, s.opts.IndexMaxLen)
		for _, g := range coll {
			b.Add(g)
		}
		doc := b.Build()
		doc.version = docVersion
		docs[string(nameBuf)] = doc
	}
	s.seed(storeVersion, docs)
	return storeVersion, nil
}
