package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary columnar ingest format ("HODB"). One request body is a
// sequence of length-prefixed frames; each frame is self-describing —
// it carries frame-local string dictionaries for the four identifier
// columns and stores the per-record identifiers as int32 dictionary
// indexes, columnar, little-endian:
//
//	u32   payload length (bytes after this prefix)
//	4B    magic "HODB"
//	u8    version (1)
//	u8    reserved (0)
//	4×    dictionary (machines, jobs, phases, sensors):
//	        u16 count, then count × (u16 length + bytes)
//	u32   record count n
//	n×i32 machine index   (-1 marks an environment record)
//	n×i32 job index       (-1 on environment records)
//	n×i32 phase index     (-1 on environment records)
//	n×i32 sensor index
//	n×i32 t
//	n×u64 value (IEEE-754 bits)
//
// Dictionary indexes out of range, inconsistent env markers, truncated
// or oversized frames are structural errors (ErrFrame): unlike a bad
// record in an NDJSON body they reject the whole request with 400 and
// the bad_frame code. Identifier *semantics* (unknown machine, unknown
// phase, non-finite value, t out of range) stay per-record rejections,
// exactly like the NDJSON codec.
const (
	// ContentTypeBinary negotiates the binary columnar batch format on
	// POST ingest.
	ContentTypeBinary = "application/x-hod-batch"

	frameMagic   = "HODB"
	frameVersion = 1

	// MaxFrameBytes caps one frame's payload; bigger batches are split
	// into multiple frames.
	MaxFrameBytes = 64 << 20

	maxDictEntries = 1<<16 - 1
)

// ErrFrame marks a structurally malformed binary frame. Every decode
// error of the binary codec matches it with errors.Is.
var ErrFrame = errors.New("wire: malformed binary frame")

// Frame is one decoded (or to-be-encoded) binary batch: the four
// frame-local dictionaries plus the columnar record arrays. The
// identifier columns index their dictionaries; Machine -1 marks an
// environment record (Job and Phase are -1 there too). A Frame is
// reusable across Reset calls — decode and encode both append into the
// existing backing arrays.
type Frame struct {
	Machines, Jobs, Phases, Sensors []string

	Machine, Job, Phase, Sensor, T []int32
	Value                          []float64
}

// Len returns the number of records in the frame.
func (f *Frame) Len() int { return len(f.Value) }

// Reset empties the frame, keeping the backing arrays for reuse.
func (f *Frame) Reset() {
	f.Machines, f.Jobs, f.Phases, f.Sensors =
		f.Machines[:0], f.Jobs[:0], f.Phases[:0], f.Sensors[:0]
	f.Machine, f.Job, f.Phase, f.Sensor, f.T =
		f.Machine[:0], f.Job[:0], f.Phase[:0], f.Sensor[:0], f.T[:0]
	f.Value = f.Value[:0]
}

// AppendFrame encodes the frame onto dst and returns the extended
// slice. Column lengths must agree and the dictionaries must fit the
// u16 count fields; the indexes themselves are trusted (the decoder
// re-checks them, so a buggy encoder cannot slip past a conforming
// reader).
//
//hod:hotpath
//hod:allow(hotpath) every fmt.Errorf here sits on a malformed-frame return; the encode success path only appends to dst
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	n := len(f.Value)
	if len(f.Machine) != n || len(f.Job) != n || len(f.Phase) != n ||
		len(f.Sensor) != n || len(f.T) != n {
		return nil, fmt.Errorf("%w: ragged columns", ErrFrame)
	}
	if n > MaxBatchRecords {
		return nil, fmt.Errorf("%w: %d records exceed the %d cap", ErrFrame, n, MaxBatchRecords)
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // payload length backpatched below
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, 0)
	for _, dict := range [][]string{f.Machines, f.Jobs, f.Phases, f.Sensors} {
		if len(dict) > maxDictEntries {
			return nil, fmt.Errorf("%w: dictionary of %d entries exceeds the %d cap", ErrFrame, len(dict), maxDictEntries)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(dict)))
		for _, s := range dict {
			if len(s) > maxDictEntries {
				return nil, fmt.Errorf("%w: dictionary entry of %d bytes", ErrFrame, len(s))
			}
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
			dst = append(dst, s...)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, col := range [][]int32{f.Machine, f.Job, f.Phase, f.Sensor, f.T} {
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	}
	for _, v := range f.Value {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	payload := len(dst) - start
	if payload > MaxFrameBytes {
		return nil, fmt.Errorf("%w: payload of %d bytes exceeds the %d cap", ErrFrame, payload, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(payload))
	return dst, nil
}

// ReadFrame reads and parses one frame from r into f (resetting it
// first). It returns io.EOF — and only io.EOF — when the reader is
// cleanly exhausted before a length prefix; every malformed or
// truncated frame is an ErrFrame.
func ReadFrame(r io.Reader, f *Frame) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: truncated length prefix: %v", ErrFrame, err)
	}
	size := binary.LittleEndian.Uint32(hdr[:])
	if size < uint32(len(frameMagic))+2 || size > MaxFrameBytes {
		return fmt.Errorf("%w: payload length %d outside [%d, %d]", ErrFrame, size, len(frameMagic)+2, MaxFrameBytes)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("%w: truncated payload: %v", ErrFrame, err)
	}
	return DecodeFrame(buf, f)
}

// DecodeFrame parses one frame payload (the bytes after the length
// prefix) into f, resetting it first. Structural violations —
// truncation, trailing bytes, dictionary indexes out of range,
// inconsistent environment markers — return ErrFrame.
//
//hod:hotpath
//hod:allow(hotpath) every fmt.Errorf sits on a corrupt-input return, and the magic-check []byte→string comparison is compiler-elided (never escapes)
func DecodeFrame(p []byte, f *Frame) error {
	f.Reset()
	if len(p) < len(frameMagic)+2 || string(p[:len(frameMagic)]) != frameMagic {
		return fmt.Errorf("%w: bad magic", ErrFrame)
	}
	if v := p[len(frameMagic)]; v != frameVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrFrame, v)
	}
	p = p[len(frameMagic)+2:]
	var err error
	if f.Machines, p, err = readDict(f.Machines, p); err != nil {
		return err
	}
	if f.Jobs, p, err = readDict(f.Jobs, p); err != nil {
		return err
	}
	if f.Phases, p, err = readDict(f.Phases, p); err != nil {
		return err
	}
	if f.Sensors, p, err = readDict(f.Sensors, p); err != nil {
		return err
	}
	if len(p) < 4 {
		return fmt.Errorf("%w: truncated record count", ErrFrame)
	}
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if n > MaxBatchRecords {
		return fmt.Errorf("%w: %d records exceed the %d cap", ErrFrame, n, MaxBatchRecords)
	}
	if uint64(len(p)) != uint64(n)*(5*4+8) {
		return fmt.Errorf("%w: %d column bytes for %d records", ErrFrame, len(p), n)
	}
	if f.Machine, p, err = readI32Col(f.Machine, p, int(n), len(f.Machines), "machine"); err != nil {
		return err
	}
	if f.Job, p, err = readI32Col(f.Job, p, int(n), len(f.Jobs), "job"); err != nil {
		return err
	}
	if f.Phase, p, err = readI32Col(f.Phase, p, int(n), len(f.Phases), "phase"); err != nil {
		return err
	}
	if f.Sensor, p, err = readI32Col(f.Sensor, p, int(n), len(f.Sensors), "sensor"); err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		f.T = append(f.T, int32(binary.LittleEndian.Uint32(p[i*4:])))
	}
	p = p[int(n)*4:]
	for i := 0; i < int(n); i++ {
		f.Value = append(f.Value, math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:])))
	}
	for i := 0; i < int(n); i++ {
		env := f.Machine[i] < 0
		if env != (f.Job[i] < 0) || env != (f.Phase[i] < 0) {
			return fmt.Errorf("%w: record %d: inconsistent environment marker", ErrFrame, i)
		}
		if f.Sensor[i] < 0 {
			return fmt.Errorf("%w: record %d: sensor index %d out of range", ErrFrame, i, f.Sensor[i])
		}
	}
	return nil
}

// readDict decodes one length-prefixed string dictionary.
//
//hod:allow(hotpath) the dictionary is the one sanctioned byte→string boundary: at most 65535 entries per frame, and consumers intern the entries before per-record work
func readDict(dst []string, p []byte) ([]string, []byte, error) {
	if len(p) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated dictionary", ErrFrame)
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return nil, nil, fmt.Errorf("%w: truncated dictionary entry", ErrFrame)
		}
		l := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < l {
			return nil, nil, fmt.Errorf("%w: truncated dictionary entry", ErrFrame)
		}
		dst = append(dst, string(p[:l]))
		p = p[l:]
	}
	return dst, p, nil
}

// readI32Col decodes one int32 column, range-checking every index.
//
//hod:allow(hotpath) the single fmt.Errorf is the out-of-range corrupt-input return; the decode loop itself is fmt-free
func readI32Col(dst []int32, p []byte, n, dictLen int, name string) ([]int32, []byte, error) {
	for i := 0; i < n; i++ {
		v := int32(binary.LittleEndian.Uint32(p[i*4:]))
		if v < -1 || int(v) >= dictLen {
			return nil, nil, fmt.Errorf("%w: record %d: %s index %d outside dictionary of %d", ErrFrame, i, name, v, dictLen)
		}
		dst = append(dst, v)
	}
	return dst, p[n*4:], nil
}

// FrameBuilder accumulates Records into a Frame, interning identifier
// strings into the frame-local dictionaries. It is the client-side half
// of the binary codec (EncodeBinary, behind every hod.Client ingest,
// builds its frame with one), and the server reads every NDJSON body
// into a Frame with one (AddNDJSON), so all ingest bodies resolve as
// frames.
type FrameBuilder struct {
	f                                   Frame
	machineID, jobID, phaseID, sensorID map[string]int32
	nd                                  ndjsonReader
	lastID                              [keySensor + 1]int32 // AddNDJSON's last id per name column
}

// NewFrameBuilder returns an empty builder.
func NewFrameBuilder() *FrameBuilder {
	return &FrameBuilder{
		machineID: make(map[string]int32),
		jobID:     make(map[string]int32),
		phaseID:   make(map[string]int32),
		sensorID:  make(map[string]int32),
	}
}

func internInto(dict *[]string, ids map[string]int32, s string) int32 {
	if id, ok := ids[s]; ok {
		return id
	}
	id := int32(len(*dict))
	*dict = append(*dict, s)
	ids[s] = id
	return id
}

// Add appends one record.
func (b *FrameBuilder) Add(rec Record) {
	f := &b.f
	if rec.Env {
		f.Machine = append(f.Machine, -1)
		f.Job = append(f.Job, -1)
		f.Phase = append(f.Phase, -1)
	} else {
		f.Machine = append(f.Machine, internInto(&f.Machines, b.machineID, rec.Machine))
		f.Job = append(f.Job, internInto(&f.Jobs, b.jobID, rec.Job))
		f.Phase = append(f.Phase, internInto(&f.Phases, b.phaseID, rec.Phase))
	}
	f.Sensor = append(f.Sensor, internInto(&f.Sensors, b.sensorID, rec.Sensor))
	f.T = append(f.T, saturateT(rec.T))
	f.Value = append(f.Value, rec.Value)
}

// saturateT narrows a timestamp to the i32 column, clamping it to the
// int32 bounds. Wrapping would turn t = 1<<32+3 into a valid-looking
// 3; a clamped value stays out of any server's sample range, so the
// record is rejected as the NDJSON codec rejects it.
func saturateT(t int) int32 {
	return int32(max(math.MinInt32, min(t, math.MaxInt32)))
}

// Len returns the number of accumulated records.
func (b *FrameBuilder) Len() int { return b.f.Len() }

// Frame returns the accumulated frame without encoding it. It aliases
// the builder's storage: it is valid until the next Add or Reset.
func (b *FrameBuilder) Frame() *Frame { return &b.f }

// AppendTo encodes the accumulated frame onto dst.
func (b *FrameBuilder) AppendTo(dst []byte) ([]byte, error) { return AppendFrame(dst, &b.f) }

// Reset empties the builder for the next frame.
func (b *FrameBuilder) Reset() {
	b.f.Reset()
	clear(b.machineID)
	clear(b.jobID)
	clear(b.phaseID)
	clear(b.sensorID)
}

// EncodeBinary renders records as binary frames — the columnar
// equivalent of EncodeNDJSON and the body every hod.Client ingest
// posts. A batch is one frame unless a dictionary fills its u16 count;
// then the next record starts a new frame, so any batch NDJSON carries
// is sent. Batches beyond the per-request record cap are rejected like
// the NDJSON decoder rejects them.
func EncodeBinary(recs []Record) ([]byte, error) {
	if len(recs) > MaxBatchRecords {
		return nil, fmt.Errorf("batch of %d records exceeds the %d cap", len(recs), MaxBatchRecords)
	}
	b := NewFrameBuilder()
	var body []byte
	for _, rec := range recs {
		if f := &b.f; max(len(f.Machines), len(f.Jobs), len(f.Phases), len(f.Sensors)) == maxDictEntries {
			var err error
			if body, err = b.AppendTo(body); err != nil {
				return nil, err
			}
			b.Reset()
		}
		b.Add(rec)
	}
	return b.AppendTo(body)
}

// Records expands the frame back into Record values, appending onto
// dst — the symmetric decode DecodeBinary uses (the server's hot path
// skips this and resolves the dictionaries straight to interned ids).
func (f *Frame) Records(dst []Record) []Record {
	for i := range f.Value {
		rec := Record{Sensor: f.Sensors[f.Sensor[i]], T: int(f.T[i]), Value: f.Value[i]}
		if f.Machine[i] < 0 {
			rec.Env = true
		} else {
			rec.Machine = f.Machines[f.Machine[i]]
			rec.Job = f.Jobs[f.Job[i]]
			rec.Phase = f.Phases[f.Phase[i]]
		}
		dst = append(dst, rec)
	}
	return dst
}

// DecodeBinary parses a binary ingest body, a sequence of frames, into
// records: the inverse of EncodeBinary, which the frame tests use as
// their oracle.
func DecodeBinary(r io.Reader) ([]Record, error) {
	var out []Record
	var f Frame
	for {
		err := ReadFrame(r, &f)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(out)+f.Len() > MaxBatchRecords {
			return nil, fmt.Errorf("%w: batch exceeds the %d-record cap", ErrFrame, MaxBatchRecords)
		}
		out = f.Records(out)
	}
}
