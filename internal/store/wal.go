// Append-only write-ahead log for mutation batches, and the one log format
// the store writes to disk: a checkpoint (durable.go) is the same file
// format, holding the compacted log. Every committed ApplyBatch batch is
// framed as one record:
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
// Records are self-checking, and readLog alone decides what a bad frame
// (short, over-long, CRC mismatch) means. In the log it is a torn tail —
// a crash cut the last append short — only when no CRC-valid frame
// follows it; OpenWAL then truncates it and everything before it replays.
// A bad frame with a valid frame after it is mid-log corruption, and so is
// any bad frame in a checkpoint (renamed into place only after an fsync):
// both refuse rather than drop committed batches. Appends are a single
// write syscall per batch; the Sync policy flag decides whether each
// append is fsynced before the caller proceeds (durable-before-
// acknowledge) or left to the OS.
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
	"path/filepath"

	"gqldb/internal/graph"
	"gqldb/internal/obs"
)

const (
	walMagic   = "GQLW"
	walVersion = 1
	// walMaxPayload caps one record's payload size: the length prefix is
	// untrusted on open, and a corrupt length must not allocate unbounded
	// memory before the CRC can reject it. Writers refuse larger batches,
	// which the reader could not tell from corruption.
	walMaxPayload = 1 << 28
)

// logHeader starts every log file, the WAL and the checkpoint alike.
var logHeader = []byte{'G', 'Q', 'L', 'W', walVersion}

// WALRecord is one decoded log record: a mutation batch and the store
// version it committed as.
type WALRecord struct {
	Seq  uint64
	Muts []Mutation
}

// WAL is an append-only mutation log backed by one file.
type WAL struct {
	f    *os.File
	sync bool
	// end is the offset past the last whole record.
	end     int64
	records int
}

// OpenWAL opens (or creates) the log at path, reads it, truncates a torn
// tail, and returns the log positioned for appending plus every intact
// record in order. A file that is not a log, or one corrupt before its
// tail, is refused and left as it is. sync selects the fsync-per-append
// policy.
func OpenWAL(path string, sync bool) (_ *WAL, _ []WALRecord, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write(logHeader); err != nil {
			return nil, nil, fmt.Errorf("store: wal: writing header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, nil, fmt.Errorf("store: wal: %w", err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			return nil, nil, fmt.Errorf("store: wal: %w", err)
		}
		data = logHeader
	}
	recs, good, err := readLog(data, path, true)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(good); err != nil {
		return nil, nil, fmt.Errorf("store: wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	return &WAL{f: f, sync: sync, end: good, records: len(recs)}, recs, nil
}

// syncDir fsyncs a directory, so that an entry created or renamed in it
// survives a power loss: the name lives in the directory, not in the file.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readLog decodes a whole log file — the header, then every record — and
// returns the records with the length of the prefix they fill. A bad frame
// ends the records only when allowTorn is set and frameAfter finds no
// valid frame after it (a torn tail); anything else that does not decode
// is an error, so without allowTorn a file is accepted only whole.
func readLog(data []byte, path string, allowTorn bool) ([]WALRecord, int64, error) {
	if len(data) < len(logHeader) || string(data[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("store: %s: bad magic %q", path, data[:min(len(data), len(walMagic))])
	}
	if data[len(walMagic)] != walVersion {
		return nil, 0, fmt.Errorf("store: %s: unsupported version %d", path, data[len(walMagic)])
	}
	var recs []WALRecord
	var payload []byte
	for off := len(logHeader); off < len(data); off += 8 + len(payload) {
		var ok bool
		if payload, ok = frameAt(data, off); !ok {
			if allowTorn && !frameAfter(data, off) {
				return recs, int64(off), nil
			}
			return nil, 0, fmt.Errorf("store: %s: record %d at offset %d is corrupt", path, len(recs), off)
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("store: %s: record %d: %w", path, len(recs), err)
		}
		recs = append(recs, rec)
	}
	return recs, int64(len(data)), nil
}

// frameAt returns the payload of the frame at off and whether the frame is
// whole and CRC-valid.
func frameAt(data []byte, off int) ([]byte, bool) {
	if len(data)-off < 8 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	if n == 0 || n > walMaxPayload || uint64(n) > uint64(len(data)-off-8) {
		return nil, false
	}
	payload := data[off+4 : off+4+int(n)]
	return payload, binary.LittleEndian.Uint32(data[off+4+int(n):]) == crc32.ChecksumIEEE(payload)
}

// frameAfter reports whether a CRC-valid frame follows the bad frame at
// off: where its own length says the next record starts, or, since a
// damaged length hides that start, as a frame ending exactly at EOF. Both
// take one pass; DESIGN.md ("The WAL") says why no other offset is tried.
func frameAfter(data []byte, off int) bool {
	if len(data)-off < 8 {
		return false
	}
	next := uint64(off) + 8 + uint64(binary.LittleEndian.Uint32(data[off:]))
	if _, ok := frameAt(data, int(min(next, uint64(len(data))))); ok {
		return true
	}
	for p := off + 1; p+8 < len(data); p++ {
		if uint64(binary.LittleEndian.Uint32(data[p:])) != uint64(len(data)-p-8) {
			continue
		}
		if _, ok := frameAt(data, p); ok {
			return true
		}
	}
	return false
}

// appendFrame encodes the batch that commits as version seq and appends its
// record frame to dst. The WAL and the checkpoint writer share it.
func appendFrame(dst []byte, seq uint64, muts []Mutation) ([]byte, error) {
	payload, err := encodeWALPayload(seq, muts)
	if err != nil {
		return nil, fmt.Errorf("store: encoding batch %d: %w", seq, err)
	}
	if len(payload) > walMaxPayload {
		return nil, fmt.Errorf("store: batch %d encodes to %d bytes, over the %d-byte record limit", seq, len(payload), walMaxPayload)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// Append frames one batch and writes it in a single syscall, fsyncing
// when the log's Sync policy demands durability before acknowledgement.
// A failed append is cut off the file, so later records never follow a
// partial one. Caller holds the store writer lock.
func (w *WAL) Append(seq uint64, muts []Mutation) error {
	frame, err := appendFrame(nil, seq, muts)
	if err != nil {
		return err
	}
	if _, err = w.f.Write(frame); err == nil && w.sync {
		err = w.f.Sync()
	}
	if err != nil {
		// Cut the partial frame back off. Should that fail too, the next
		// open finds a bad frame before valid ones and refuses the log.
		_ = w.f.Truncate(w.end)
		_, _ = w.f.Seek(w.end, io.SeekStart)
		return fmt.Errorf("store: wal: appending batch %d: %w", seq, err)
	}
	w.end += int64(len(frame))
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
	hdrLen := int64(len(logHeader))
	if err := w.f.Truncate(hdrLen); err != nil {
		return fmt.Errorf("store: wal: reset: %w", err)
	}
	if _, err := w.f.Seek(hdrLen, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal: reset: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal: reset: %w", err)
	}
	w.end, w.records = hdrLen, 0
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
		for _, s := range [...]string{m.Doc, m.Graph, m.Name, m.From, m.To} {
			str(s)
		}
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
		for _, f := range [...]*string{&m.Doc, &m.Graph, &m.Name, &m.From, &m.To} {
			if *f, err = str(); err != nil {
				return rec, err
			}
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
