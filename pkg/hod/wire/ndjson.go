package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// maxNDJSONLine caps a line, its terminator included; a last line
// without one must be a byte shorter. These are bufio.Scanner's rules.
const maxNDJSONLine = 1 << 20

// Record fields, as recordKey numbers them: the four names, then t,
// value and env.
const (
	keyMachine = iota
	keyJob
	keyPhase
	keySensor
	keyT
	keyValue
	keyEnv
)

var recordKeys = [...]string{"machine", "job", "phase", "sensor", "t", "value", "env"}

// recordKey returns the field a key sets, or -1. encoding/json tries an
// exact match before a case-insensitive one; no two of Record's names
// fold alike, so both find the same field.
func recordKey(key []byte) int {
	switch string(key) {
	case "machine":
		return keyMachine
	case "job":
		return keyJob
	case "phase":
		return keyPhase
	case "sensor":
		return keySensor
	case "t":
		return keyT
	case "value":
		return keyValue
	case "env":
		return keyEnv
	}
	for k, name := range recordKeys {
		if bytes.EqualFold(key, []byte(name)) {
			return k
		}
	}
	return -1
}

// recordReader reads one NDJSON line into a Record's fields without
// building anything: the names stay byte windows of the line, or of
// the reader's own buffers when they carried escapes, valid until the
// next line.
type recordReader struct {
	jsonReader
	names [keySensor + 1][]byte
	t     int
	value float64
	env   bool
	unesc [keySensor + 1][]byte // backing of the escaped names
	spare []byte                // scratch while an unknown value is skipped
}

// read reads the record in line[at:], which holds no white space at
// either end; error offsets count from the start of line.
func (d *recordReader) read(line []byte, at int) error {
	d.data, d.i = line, at
	d.names = [keySensor + 1][]byte{}
	d.t, d.value, d.env = 0, 0, false
	var err error
	switch d.peek() {
	case '{':
		err = d.object(1, d.field)
	case 'n':
		err = d.literal("null")
	default:
		err = d.fail("want an object")
	}
	if err == nil && d.i < len(d.data) {
		err = d.fail("data after the record")
	}
	return err
}

// field reads the value of one member; an error names the key.
func (d *recordReader) field(key []byte) error {
	at := d.i
	var err error
	switch k := recordKey(key); k {
	case keyMachine, keyJob, keyPhase, keySensor:
		err = d.name(k, at)
	case keyT:
		err = d.integer(at)
	case keyValue:
		err = d.float(at)
	case keyEnv:
		err = d.boolean(at)
	default:
		// The key may sit in the scratch buffer: skip with the spare
		// one, so that an error can still name the key.
		d.scratch, d.spare = d.spare, d.scratch
		err = d.skip(2)
		d.scratch, d.spare = d.spare, d.scratch
	}
	if je, ok := err.(*jsonError); ok && je.key == "" {
		je.key = string(key)
	}
	return err
}

func (d *recordReader) name(k, at int) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.peek() != '"' {
		return &jsonError{what: "want a string", off: at}
	}
	// Unescape into this name's own buffer: the shared scratch is
	// reused by the next key.
	d.scratch, d.unesc[k] = d.unesc[k], d.scratch
	s, err := d.rawString()
	d.scratch, d.unesc[k] = d.unesc[k], d.scratch
	d.names[k] = s
	return err
}

// numeral reads a number, or null (nil); a value that is neither is
// refused as what.
func (d *recordReader) numeral(at int, what string) ([]byte, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	if c := d.peek(); c != '-' && c-'0' >= 10 {
		return nil, &jsonError{what: what, off: at}
	}
	return d.number()
}

func (d *recordReader) integer(at int) error {
	num, err := d.numeral(at, "want an integer")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	switch {
	case errors.Is(err, strconv.ErrRange):
		return &jsonError{what: "integer out of range", off: at}
	case err != nil:
		return &jsonError{what: "want an integer", off: at}
	}
	d.t = int(v)
	return nil
}

func (d *recordReader) float(at int) error {
	num, err := d.numeral(at, "want a number")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return &jsonError{what: "number out of range", off: at}
	}
	d.value = v
	return nil
}

// boolean reads env. A bad literal refuses the line, so setting env
// before the literal is checked is safe.
func (d *recordReader) boolean(at int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		d.env = true
		return d.literal("true")
	case 'f':
		d.env = false
		return d.literal("false")
	}
	return &jsonError{what: "want true or false", off: at}
}

// ndjsonReader splits an NDJSON body into lines and reads each into
// its recordReader. It keeps its line buffer across bodies.
type ndjsonReader struct {
	buf []byte
	rec recordReader
}

// each calls fn with every record of the body in r, in order.
func (nr *ndjsonReader) each(r io.Reader, fn func(*recordReader)) error {
	if nr.buf == nil {
		nr.buf = make([]byte, 64<<10)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nr.buf, maxNDJSONLine)
	line, n := 0, 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		rec := bytes.TrimSpace(raw)
		if len(rec) == 0 {
			continue
		}
		lead := cap(raw) - cap(rec) // rec is a window of raw
		if err := nr.rec.read(raw[:lead+len(rec)], lead); err != nil {
			return fmt.Errorf("ndjson line %d: %w", line, err)
		}
		if n++; n > MaxBatchRecords {
			return fmt.Errorf("batch exceeds the %d-record cap", MaxBatchRecords)
		}
		fn(&nr.rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ndjson: %w", err)
	}
	return nil
}

// AddNDJSON reads an NDJSON ingest body, which it accepts or refuses as
// DecodeNDJSON does, and appends its records as Add would append them.
// No Record is built: names go straight from the body into the
// dictionaries, and a name the builder already holds costs a lookup and
// no allocation. The builder keeps its line buffer, so a builder reused
// across bodies reads them without allocating per record. After an
// error the builder holds the lines before the bad one and needs a
// Reset.
func (b *FrameBuilder) AddNDJSON(r io.Reader) error {
	return b.nd.each(r, func(rec *recordReader) {
		f := &b.f
		if rec.env {
			f.Machine = append(f.Machine, -1)
			f.Job = append(f.Job, -1)
			f.Phase = append(f.Phase, -1)
		} else {
			f.Machine = append(f.Machine, b.internName(&f.Machines, b.machineID, rec, keyMachine))
			f.Job = append(f.Job, b.internName(&f.Jobs, b.jobID, rec, keyJob))
			f.Phase = append(f.Phase, b.internName(&f.Phases, b.phaseID, rec, keyPhase))
		}
		f.Sensor = append(f.Sensor, b.internName(&f.Sensors, b.sensorID, rec, keySensor))
		f.T = append(f.T, saturateT(rec.t))
		f.Value = append(f.Value, rec.value)
	})
}

// internName returns the dictionary id of the record's name k. The id
// the column took last is tried before the map: a batch repeats its
// names in runs.
func (b *FrameBuilder) internName(dict *[]string, ids map[string]int32, rec *recordReader, k int) int32 {
	name := rec.names[k]
	if h := b.lastID[k]; int(h) < len(*dict) && string(name) == (*dict)[h] {
		return h
	}
	id, ok := ids[string(name)]
	if !ok {
		id = internInto(dict, ids, string(name))
	}
	b.lastID[k] = id
	return id
}

// DecodeNDJSON parses an NDJSON ingest body, the text door: one Record
// object per line. Its reader is hand-written on jsonReader and accepts,
// line by line, exactly what a bufio.Scanner (1 MiB line cap) +
// bytes.TrimSpace + json.Unmarshal into a Record accepts, yielding the
// same Record:
//
//   - blank lines are skipped, and white space around a line (Unicode
//     white space included) is trimmed;
//   - a key sets the field whose JSON name it equals, or else whose name
//     it equals under bytes.EqualFold ("SENSOR" and "ſensor" set
//     Sensor); other keys are skipped, nesting up to 10 000 deep;
//   - the last of duplicate keys wins, and null leaves a field as it
//     was, so a line that is just null is an empty record;
//   - t is a base-10 integer literal ("1.0" and "1e3" are refused) and
//     value any number a float64 holds ("1e400" is refused);
//   - strings unescape as encoding/json unescapes them: invalid UTF-8
//     and unpaired surrogates become U+FFFD;
//   - nothing may follow the object on its line;
//   - a body holds at most MaxBatchRecords records.
//
// A body that breaks any of these is refused whole, with an error that
// names the line, the key and the byte offset. Equal names in the
// records share one string.
func DecodeNDJSON(r io.Reader) ([]Record, error) {
	var nr ndjsonReader
	var out []Record
	var last [keySensor + 1]string // the string each name column took last
	name := func(rec *recordReader, k int) string {
		if string(rec.names[k]) != last[k] {
			last[k] = rec.intern(rec.names[k])
		}
		return last[k]
	}
	err := nr.each(r, func(rec *recordReader) {
		out = append(out, Record{
			Machine: name(rec, keyMachine), Job: name(rec, keyJob), Phase: name(rec, keyPhase), Sensor: name(rec, keySensor),
			T: rec.t, Value: rec.value, Env: rec.env,
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeNDJSON renders records as an NDJSON ingest body: one JSON
// object per line, the bytes json.Encoder writes for each. A NaN or
// infinite value is refused with encoding/json's
// *json.UnsupportedValueError.
func EncodeNDJSON(recs []Record) ([]byte, error) {
	var buf []byte
	for i := range recs {
		r := &recs[i]
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return nil, unsupportedFloat(r.Value)
		}
		buf = append(buf, '{')
		for _, f := range [...]struct{ key, v string }{{`"machine":`, r.Machine}, {`"job":`, r.Job}, {`"phase":`, r.Phase}} {
			if f.v != "" {
				buf = append(buf, f.key...)
				buf = appendString(buf, f.v)
				buf = append(buf, ',')
			}
		}
		buf = append(buf, `"sensor":`...)
		buf = appendString(buf, r.Sensor)
		buf = append(buf, `,"t":`...)
		buf = strconv.AppendInt(buf, int64(r.T), 10)
		buf = append(buf, `,"value":`...)
		buf = appendFloat(buf, r.Value)
		if r.Env {
			buf = append(buf, `,"env":true`...)
		}
		buf = append(buf, "}\n"...)
	}
	return buf, nil
}
