// Append-only write-ahead log for mutation batches. Every committed
// ApplyBatch batch is framed as one record:
//
//	header:  magic "GQLW", version byte
//	record:  u32 LE payload length | payload | u32 LE CRC-32 (IEEE) of payload
//	payload: uvarint seq (the store version the batch commits as)
//	         uvarint mutation count
//	         per mutation: op byte, doc, graph, name, from, to (GQLB strings),
//	                       attrs (GQLB tuple), body flag + length-prefixed
//	                       GQLB collection when present (one graph; the
//	                       whole document for register doc)
//
// Records are self-checking: on open the log is scanned, and a torn or
// corrupt tail (partial frame from a crash mid-write, CRC mismatch) is
// truncated at the last good record — everything before it replays.
// Appends are a single write syscall per batch; the Sync policy flag
// decides whether each append is fsynced before the caller proceeds
// (durable-before-acknowledge) or left to the OS.
//
// A WAL is single-writer and not goroutine-safe: a DocStore opened with
// OpenDurable calls it from ApplyBatch and Checkpoint with the store's
// writer lock held (enforced by gqlvet's gosafe table).
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"gqldb/internal/graph"
	"gqldb/internal/obs"
)

const (
	walMagic   = "GQLW"
	walVersion = 1
	// walMaxPayload caps one record's claimed payload size: the length
	// prefix is untrusted on open, and a corrupt length must not allocate
	// unbounded memory before the CRC can reject it.
	walMaxPayload = 1 << 28
)

// WALRecord is one decoded log record: a mutation batch and the store
// version it committed as.
type WALRecord struct {
	Seq  uint64
	Muts []Mutation
}

// WAL is an append-only mutation log backed by one file.
type WAL struct {
	f       *os.File
	path    string
	sync    bool
	records int
}

// OpenWAL opens (or creates) the log at path, scans it, truncates any
// torn or corrupt tail, and returns the log positioned for appending plus
// every intact record in order. sync selects the fsync-per-append policy.
func OpenWAL(path string, sync bool) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	w := &WAL{f: f, path: path, sync: sync}
	recs, good, err := w.scan()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the torn tail (if any) and position for appending.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	w.records = len(recs)
	return w, recs, nil
}

// scan reads the whole log, returning the intact records and the offset
// just past the last good one. A missing header on an empty file is
// written; a wrong header is an error (the file is not ours to truncate).
func (w *WAL) scan() ([]WALRecord, int64, error) {
	info, err := w.f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: wal: %w", err)
	}
	if info.Size() == 0 {
		hdr := append([]byte(walMagic), walVersion)
		if _, err := w.f.Write(hdr); err != nil {
			return nil, 0, fmt.Errorf("store: wal: writing header: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("store: wal: %w", err)
		}
		return nil, int64(len(hdr)), nil
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("store: wal: %w", err)
	}
	r := bufio.NewReaderSize(w.f, 1<<16)
	hdr := make([]byte, len(walMagic)+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, fmt.Errorf("store: wal: reading header: %w", err)
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("store: wal: bad magic %q in %s", hdr[:len(walMagic)], w.path)
	}
	if hdr[len(walMagic)] != walVersion {
		return nil, 0, fmt.Errorf("store: wal: unsupported version %d in %s", hdr[len(walMagic)], w.path)
	}
	var recs []WALRecord
	good := int64(len(hdr))
	for { //gqlvet:ignore ctxpoll -- bounded by the log file size; recovery runs before any context exists
		var frame [4]byte
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			// EOF here is a clean end; a short read is a torn length prefix.
			return recs, good, nil
		}
		n := binary.LittleEndian.Uint32(frame[:])
		if n == 0 || n > walMaxPayload {
			return recs, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, good, nil
		}
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return recs, good, nil
		}
		if binary.LittleEndian.Uint32(frame[:]) != crc32.ChecksumIEEE(payload) {
			return recs, good, nil
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			// The CRC matched but the payload does not decode: this is not a
			// torn write but a format bug or foreign data — refuse to run on
			// it rather than silently dropping committed mutations.
			return nil, 0, fmt.Errorf("store: wal: record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
		good += int64(8 + n)
	}
}

// Append frames one batch and writes it in a single syscall, fsyncing
// when the log's Sync policy demands durability before acknowledgement.
// Caller holds the store writer lock.
func (w *WAL) Append(seq uint64, muts []Mutation) error {
	payload, err := encodeWALPayload(seq, muts)
	if err != nil {
		return fmt.Errorf("store: wal: encoding batch %d: %w", seq, err)
	}
	frame := make([]byte, 0, len(payload)+8)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: wal: appending batch %d: %w", seq, err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal: fsync: %w", err)
		}
	}
	w.records++
	obs.WALAppends.Inc()
	return nil
}

// Records returns the number of records currently in the log.
func (w *WAL) Records() int { return w.records }

// Reset truncates the log back to its header — called after a snapshot
// checkpoint has made the records redundant. Caller holds the store
// writer lock.
func (w *WAL) Reset() error {
	hdrLen := int64(len(walMagic) + 1)
	if err := w.f.Truncate(hdrLen); err != nil {
		return fmt.Errorf("store: wal: reset: %w", err)
	}
	if _, err := w.f.Seek(hdrLen, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal: reset: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal: reset: %w", err)
	}
	w.records = 0
	return nil
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

func encodeWALPayload(seq uint64, muts []Mutation) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	str := func(s string) {
		uv(uint64(len(s)))
		bw.WriteString(s)
	}
	uv(seq)
	uv(uint64(len(muts)))
	for i := range muts {
		m := &muts[i]
		bw.WriteByte(byte(m.Op))
		str(m.Doc)
		str(m.Graph)
		str(m.Name)
		str(m.From)
		str(m.To)
		if err := graph.WriteTuple(bw, m.Attrs); err != nil {
			return nil, err
		}
		body, present := graph.Collection{m.Body}, m.Body != nil
		if m.Op == OpRegisterDoc {
			body, present = m.Coll, true
		}
		if !present {
			bw.WriteByte(0)
		} else {
			bw.WriteByte(1)
			var gb bytes.Buffer
			if err := graph.WriteBinary(&gb, body); err != nil {
				return nil, err
			}
			uv(uint64(gb.Len()))
			bw.Write(gb.Bytes())
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeWALPayload(payload []byte) (WALRecord, error) {
	br := bufio.NewReader(bytes.NewReader(payload))
	var rec WALRecord
	seq, err := binary.ReadUvarint(br)
	if err != nil {
		return rec, err
	}
	rec.Seq = seq
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return rec, err
	}
	if count > uint64(len(payload)) {
		return rec, fmt.Errorf("store: wal: implausible mutation count %d", count)
	}
	str := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > uint64(len(payload)) {
			return "", fmt.Errorf("store: wal: implausible string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	rec.Muts = make([]Mutation, 0, count)
	for i := uint64(0); i < count; i++ {
		var m Mutation
		op, err := br.ReadByte()
		if err != nil {
			return rec, err
		}
		m.Op = MutationOp(op)
		if m.Doc, err = str(); err != nil {
			return rec, err
		}
		if m.Graph, err = str(); err != nil {
			return rec, err
		}
		if m.Name, err = str(); err != nil {
			return rec, err
		}
		if m.From, err = str(); err != nil {
			return rec, err
		}
		if m.To, err = str(); err != nil {
			return rec, err
		}
		if m.Attrs, err = graph.ReadTuple(br); err != nil {
			return rec, err
		}
		present, err := br.ReadByte()
		if err != nil {
			return rec, err
		}
		if present != 0 {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return rec, err
			}
			if n > uint64(len(payload)) {
				return rec, fmt.Errorf("store: wal: implausible body length %d", n)
			}
			gb := make([]byte, n)
			if _, err := io.ReadFull(br, gb); err != nil {
				return rec, err
			}
			coll, err := graph.ReadBinary(bytes.NewReader(gb))
			if err != nil {
				return rec, err
			}
			switch {
			case m.Op == OpRegisterDoc:
				m.Coll = coll
			case len(coll) != 1:
				return rec, fmt.Errorf("store: wal: body holds %d graphs, want 1", len(coll))
			default:
				m.Body = coll[0]
			}
		}
		rec.Muts = append(rec.Muts, m)
	}
	return rec, nil
}
