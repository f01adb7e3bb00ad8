package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func frameRecords() []Record {
	return []Record{
		{Machine: "line-0/m-0", Job: "job-1", Phase: "print", Sensor: "temp", T: 0, Value: 21.5},
		{Machine: "line-0/m-0", Job: "job-1", Phase: "print", Sensor: "vibration", T: 0, Value: 0.25},
		{Machine: "line-0/m-1", Job: "job-2", Phase: "cure", Sensor: "temp", T: 3, Value: math.Inf(1)},
		{Env: true, Sensor: "hall-temp", T: 1, Value: 19.75},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := frameRecords()
	body, err := EncodeBinary(in)
	if err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	out, err := DecodeBinary(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drifted:\n in=%v\nout=%v", in, out)
	}
	// Two frames in one body concatenate.
	out, err = DecodeBinary(bytes.NewReader(append(append([]byte(nil), body...), body...)))
	if err != nil {
		t.Fatalf("DecodeBinary two frames: %v", err)
	}
	if want := append(append([]Record(nil), in...), in...); !reflect.DeepEqual(want, out) {
		t.Fatalf("two-frame decode drifted: %v", out)
	}
}

// TestEncodeBinarySplitsFullDictionaries: a batch naming more jobs
// than a frame's u16 dictionary holds is valid ingest (NDJSON carries
// it), so EncodeBinary, behind every hod.Client ingest, splits it into
// frames instead of refusing it. A batch that fits stays one frame.
func TestEncodeBinarySplitsFullDictionaries(t *testing.T) {
	in := make([]Record, maxDictEntries+10)
	for i := range in {
		in[i] = Record{Machine: "m", Job: "job-" + strconv.Itoa(i), Phase: "p", Sensor: "s", T: i, Value: float64(i)}
	}
	body, err := EncodeBinary(in)
	if err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	frames := 0
	for rd := bytes.NewReader(body); ; frames++ {
		var f Frame
		if err := ReadFrame(rd, &f); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if frames != 2 {
		t.Fatalf("%d frames, want 2", frames)
	}
	out, err := DecodeBinary(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("split batch does not decode to the records it was built from")
	}
}

func TestBinaryDecodeEmptyBody(t *testing.T) {
	out, err := DecodeBinary(bytes.NewReader(nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty body: got %v, %v", out, err)
	}
}

func TestReadFrameCleanEOFOnly(t *testing.T) {
	body, err := EncodeBinary(frameRecords())
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	r := bytes.NewReader(body)
	if err := ReadFrame(r, &f); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if err := ReadFrame(r, &f); err != io.EOF {
		t.Fatalf("clean end: want io.EOF, got %v", err)
	}
}

// mutateFrame re-encodes the canonical records and applies fn to the
// raw body before decoding.
func mutateFrame(t *testing.T, fn func([]byte) []byte) error {
	t.Helper()
	body, err := EncodeBinary(frameRecords())
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeBinary(bytes.NewReader(fn(body)))
	return err
}

func TestBinaryDecodeRejections(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated prefix", func(b []byte) []byte { return b[:2] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailing garbage frame", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
		{"bad magic", func(b []byte) []byte { b[4] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[8] = 99; return b }},
		{"oversized length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, MaxFrameBytes+1)
			return b
		}},
		{"undersized length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 3)
			return b
		}},
		{"machine index out of range", func(b []byte) []byte {
			// First machine column entry sits right after the record
			// count; overwrite it with a huge index.
			i := bytes.Index(b, []byte("hall-temp")) + len("hall-temp") + 4
			binary.LittleEndian.PutUint32(b[i:], 1<<20)
			return b
		}},
		{"inconsistent env marker", func(b []byte) []byte {
			// Flip the first record's machine index to -1 while its
			// job/phase indexes stay valid.
			i := bytes.Index(b, []byte("hall-temp")) + len("hall-temp") + 4
			binary.LittleEndian.PutUint32(b[i:], uint32(0xffffffff))
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mutateFrame(t, tc.fn)
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("want ErrFrame, got %v", err)
			}
		})
	}
}

func TestAppendFrameRejectsRaggedAndOversized(t *testing.T) {
	f := &Frame{
		Machines: []string{"m"}, Jobs: []string{"j"}, Phases: []string{"p"}, Sensors: []string{"s"},
		Machine: []int32{0, 0}, Job: []int32{0}, Phase: []int32{0}, Sensor: []int32{0},
		T: []int32{0}, Value: []float64{1},
	}
	if _, err := AppendFrame(nil, f); !errors.Is(err, ErrFrame) {
		t.Fatalf("ragged columns: want ErrFrame, got %v", err)
	}
	huge := &Frame{Machines: []string{strings.Repeat("x", maxDictEntries+1)}}
	if _, err := AppendFrame(nil, huge); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized dict entry: want ErrFrame, got %v", err)
	}
}

// TestFrameBuilderSaturatesT pins that a timestamp outside the i32
// column clamps to the int32 bound instead of wrapping onto a valid
// sample index.
func TestFrameBuilderSaturatesT(t *testing.T) {
	for _, c := range []struct {
		in   int
		want int32
	}{
		{1<<32 + 3, math.MaxInt32},
		{math.MaxInt32 + 1, math.MaxInt32},
		{math.MaxInt32, math.MaxInt32},
		{-(1 << 32) + 3, math.MinInt32},
		{math.MinInt32, math.MinInt32},
		{-1, -1},
		{65535, 65535},
	} {
		body, err := EncodeBinary([]Record{{Env: true, Sensor: "hall-temp", T: c.in, Value: 1}})
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeBinary(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].T; got != int(c.want) {
			t.Errorf("t %d encodes as %d, want %d", c.in, got, c.want)
		}
	}
}

// framesEqual compares two frames column by column, values by bit
// pattern so NaNs compare equal to themselves.
func framesEqual(a, b *Frame) bool {
	for _, d := range [][2][]string{{a.Machines, b.Machines}, {a.Jobs, b.Jobs}, {a.Phases, b.Phases}, {a.Sensors, b.Sensors}} {
		if !slices.Equal(d[0], d[1]) {
			return false
		}
	}
	for _, c := range [][2][]int32{{a.Machine, b.Machine}, {a.Job, b.Job}, {a.Phase, b.Phase}, {a.Sensor, b.Sensor}, {a.T, b.T}} {
		if !slices.Equal(c[0], c[1]) {
			return false
		}
	}
	return slices.EqualFunc(a.Value, b.Value, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// FuzzDecodeFrame feeds arbitrary frame payloads to the decoder: it
// must never panic, and every payload it accepts must re-encode into a
// frame that decodes back to the same columns and dictionaries.
func FuzzDecodeFrame(f *testing.F) {
	body, err := EncodeBinary(frameRecords())
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body[4:])
	f.Add(empty[4:])
	f.Add(body[4 : len(body)-5])
	f.Add([]byte("HODB\x01\x00"))
	f.Add([]byte("this is not a frame at all"))
	f.Fuzz(func(t *testing.T, p []byte) {
		var fr Frame
		if DecodeFrame(p, &fr) != nil {
			return
		}
		enc, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if got := binary.LittleEndian.Uint32(enc); int(got) != len(enc)-4 {
			t.Fatalf("length prefix %d for a %d-byte payload", got, len(enc)-4)
		}
		var back Frame
		if err := DecodeFrame(enc[4:], &back); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !framesEqual(&fr, &back) {
			t.Fatalf("round trip drifted:\n in=%+v\nout=%+v", fr, back)
		}
	})
}
