package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary format serializes fully-attributed graphs and collections —
// the physical-storage substrate §7 lists as future work. Layout (all
// integers varint-encoded, strings length-prefixed):
//
//	magic "GQLB" version(1)
//	graphCount
//	per graph: name, directed(1), attrs, nodeCount, {name, attrs}...,
//	           edgeCount, {name, from, to, attrs}...
//	per tuple: tag, attrCount, {name, kind, payload}...
//
// The format round-trips every Value kind and preserves declaration order.

const (
	binaryMagic   = "GQLB"
	binaryVersion = 1
)

// BinaryWriter is what the encoder writes through: a *bufio.Writer, or an
// in-memory writer such as *bytes.Buffer that needs no buffer of its own.
type BinaryWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// BinaryReader is what the decoder reads from: a *bufio.Reader, or an
// in-memory reader such as *bytes.Reader.
type BinaryReader interface {
	io.Reader
	io.ByteReader
}

type binWriter struct {
	w   BinaryWriter
	buf [binary.MaxVarintLen64]byte
	err error
}

func (b *binWriter) uvarint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *binWriter) varint(v int64) {
	if b.err != nil {
		return
	}
	n := binary.PutVarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *binWriter) str(s string) {
	b.uvarint(uint64(len(s)))
	if b.err == nil {
		_, b.err = b.w.WriteString(s)
	}
}

func (b *binWriter) byte(v byte) {
	if b.err == nil {
		b.err = b.w.WriteByte(v)
	}
}

func (b *binWriter) tuple(t *Tuple) {
	if t == nil {
		b.byte(0)
		return
	}
	b.byte(1)
	b.str(t.Tag)
	b.uvarint(uint64(t.Len()))
	for i := 0; i < t.Len(); i++ {
		a := t.At(i)
		b.str(a.Name)
		b.byte(byte(a.Val.Kind()))
		switch a.Val.Kind() {
		case KindInt:
			b.varint(a.Val.AsInt())
		case KindFloat:
			b.uvarint(math.Float64bits(a.Val.AsFloat()))
		case KindString:
			b.str(a.Val.AsString())
		case KindBool:
			if a.Val.AsBool() {
				b.byte(1)
			} else {
				b.byte(0)
			}
		}
	}
}

// WriteTuple appends one tuple (possibly nil) to w in the GQLB tuple
// encoding. It is the embeddable form of the codec: the store's WAL frames
// mutation attributes with it. The caller owns flushing w.
func WriteTuple(w BinaryWriter, t *Tuple) error {
	bw := &binWriter{w: w}
	bw.tuple(t)
	return bw.err
}

// ReadTuple decodes one tuple written by WriteTuple from r. Reading
// through the caller's reader keeps the stream position exact, so a tuple
// can sit between other fields of an enclosing record.
func ReadTuple(r BinaryReader) (*Tuple, error) {
	br := &binReader{r: r}
	return br.tuple()
}

// WriteBinary serializes a collection (use a one-element collection for a
// single graph). A w that is already a BinaryWriter is written directly;
// any other w goes through a 64 KiB buffer of WriteBinary's own.
func WriteBinary(w io.Writer, c Collection) error {
	bw := &binWriter{}
	var buf *bufio.Writer
	if direct, ok := w.(BinaryWriter); ok {
		bw.w = direct
	} else {
		buf = bufio.NewWriterSize(w, 1<<16)
		bw.w = buf
	}
	if _, err := bw.w.WriteString(binaryMagic); err != nil {
		return err
	}
	bw.byte(binaryVersion)
	bw.uvarint(uint64(len(c)))
	for _, g := range c {
		bw.str(g.Name)
		if g.Directed {
			bw.byte(1)
		} else {
			bw.byte(0)
		}
		bw.tuple(g.Attrs)
		bw.uvarint(uint64(g.NumNodes()))
		for _, n := range g.Nodes() {
			bw.str(n.Name)
			bw.tuple(n.Attrs)
		}
		bw.uvarint(uint64(g.NumEdges()))
		for _, e := range g.Edges() {
			bw.str(e.Name)
			bw.uvarint(uint64(e.From))
			bw.uvarint(uint64(e.To))
			bw.tuple(e.Attrs)
		}
	}
	if bw.err != nil || buf == nil {
		return bw.err
	}
	return buf.Flush()
}

type binReader struct {
	r BinaryReader
}

func (b *binReader) uvarint() (uint64, error) { return binary.ReadUvarint(b.r) }
func (b *binReader) varint() (int64, error)   { return binary.ReadVarint(b.r) }

func (b *binReader) str() (string, error) {
	n, err := b.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("graph: binary: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(b.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (b *binReader) byte() (byte, error) { return b.r.ReadByte() }

func (b *binReader) tuple() (*Tuple, error) {
	present, err := b.byte()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	tag, err := b.str()
	if err != nil {
		return nil, err
	}
	t := NewTuple(tag)
	n, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("graph: binary: implausible attribute count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		name, err := b.str()
		if err != nil {
			return nil, err
		}
		kind, err := b.byte()
		if err != nil {
			return nil, err
		}
		var v Value
		switch Kind(kind) {
		case KindNull:
			v = Null
		case KindInt:
			x, err := b.varint()
			if err != nil {
				return nil, err
			}
			v = Int(x)
		case KindFloat:
			bits, err := b.uvarint()
			if err != nil {
				return nil, err
			}
			v = Float(math.Float64frombits(bits))
		case KindString:
			s, err := b.str()
			if err != nil {
				return nil, err
			}
			v = String(s)
		case KindBool:
			x, err := b.byte()
			if err != nil {
				return nil, err
			}
			v = Bool(x != 0)
		default:
			return nil, fmt.Errorf("graph: binary: unknown value kind %d", kind)
		}
		t.Set(name, v)
	}
	return t, nil
}

// ReadBinary deserializes a collection written by WriteBinary. An r that is
// already a BinaryReader is read directly; any other r goes through a
// 64 KiB buffer of ReadBinary's own.
func ReadBinary(r io.Reader) (Collection, error) {
	br := &binReader{}
	if direct, ok := r.(BinaryReader); ok {
		br.r = direct
	} else {
		br.r = bufio.NewReaderSize(r, 1<<16)
	}
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br.r, magic); err != nil {
		return nil, err
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: binary: bad magic %q", magic)
	}
	ver, err := br.byte()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("graph: binary: unsupported version %d", ver)
	}
	count, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if count > 1<<26 {
		return nil, fmt.Errorf("graph: binary: implausible graph count %d", count)
	}
	// Cap the pre-allocation: the count is attacker-controlled and each graph
	// still has to be parsed, so a huge claimed count must not reserve
	// memory before any bytes back it up.
	capHint := count
	if capHint > 1024 {
		capHint = 1024
	}
	out := make(Collection, 0, capHint)
	for gi := uint64(0); gi < count; gi++ {
		name, err := br.str()
		if err != nil {
			return nil, err
		}
		dir, err := br.byte()
		if err != nil {
			return nil, err
		}
		// Construction goes through the batch Builder: malformed records
		// (duplicate names, bad endpoints) accumulate and reject the file
		// with every offending op reported, instead of aborting the process.
		bld := NewBuilder(name, dir != 0)
		attrs, err := br.tuple()
		if err != nil {
			return nil, err
		}
		if attrs != nil {
			bld.SetTuple(attrs)
		}
		nNodes, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if nNodes > 1<<30 {
			return nil, fmt.Errorf("graph: binary: implausible node count %d", nNodes)
		}
		for i := uint64(0); i < nNodes; i++ {
			nm, err := br.str()
			if err != nil {
				return nil, err
			}
			attrs, err := br.tuple()
			if err != nil {
				return nil, err
			}
			bld.AddNode(nm, attrs)
		}
		nEdges, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if nEdges > 1<<31 {
			return nil, fmt.Errorf("graph: binary: implausible edge count %d", nEdges)
		}
		for i := uint64(0); i < nEdges; i++ {
			nm, err := br.str()
			if err != nil {
				return nil, err
			}
			from, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			to, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			attrs, err := br.tuple()
			if err != nil {
				return nil, err
			}
			if from >= nNodes || to >= nNodes {
				return nil, fmt.Errorf("graph: binary: edge endpoint out of range")
			}
			bld.AddEdge(nm, NodeID(from), NodeID(to), attrs)
		}
		g, err := bld.Build()
		if err != nil {
			return nil, fmt.Errorf("graph: binary: %w", err)
		}
		out = append(out, g)
	}
	return out, nil
}
