package wire

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The cube body is the largest and most frequent response of the v1
// API: a machine slice of the serving cube is a couple of thousand
// cells. encoding/json costs more than the answer does — reflection
// per field, a json.Compact re-scan of any MarshalJSON output, a
// validity pass before any UnmarshalJSON — so the cube body has its
// own codec. It is byte-for-byte and value-for-value json's: the
// encoder produces json.Marshal's bytes, and the decoder accepts what
// json.Unmarshal accepts into a CubeResponse and yields the same value,
// with one exception — keys must match a field's JSON name exactly;
// encoding/json's case-insensitive fallback is not honoured. The
// decoder's scanner is jsonReader (jsonread.go), which the NDJSON
// ingest door reads with too.

// AppendCubeResponse appends the JSON encoding of r to dst. The bytes
// are json.Marshal's (field order, omitempty, float formatting, HTML-
// safe string escaping), and the error is too: a NaN or infinite
// measure is refused with a *json.UnsupportedValueError, and dst is
// returned as it came.
func AppendCubeResponse(dst []byte, r *CubeResponse) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"plant":`...)
	dst = appendString(dst, r.Plant)
	dst = append(dst, `,"op":`...)
	dst = appendString(dst, r.Op)
	dst = append(dst, `,"dims":`...)
	dst = appendStrings(dst, r.Dims)
	if len(r.Where) > 0 {
		dst = append(dst, `,"where":`...)
		dst = appendStrings(dst, r.Where)
	}
	if len(r.Members) > 0 {
		dst = append(dst, `,"members":`...)
		dst = appendStrings(dst, r.Members)
	}
	if len(r.Cells) > 0 {
		dst = append(dst, `,"cells":[`...)
		for i := range r.Cells {
			c := &r.Cells[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"coord":`...)
			dst = appendStrings(dst, c.Coord)
			dst = append(dst, `,"count":`...)
			dst = strconv.AppendInt(dst, int64(c.Count), 10)
			for _, f := range [...]struct {
				key string
				v   float64
			}{{`,"sum":`, c.Sum}, {`,"mean":`, c.Mean}, {`,"min":`, c.Min}, {`,"max":`, c.Max}} {
				if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
					return dst[:start], unsupportedFloat(f.v)
				}
				dst = append(dst, f.key...)
				dst = appendFloat(dst, f.v)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total_cells":`...)
	dst = strconv.AppendInt(dst, int64(r.TotalCells), 10)
	return append(dst, '}'), nil
}

// appendFloat formats a finite float as encoding/json does: the
// shortest representation, in exponent form only below 1e-6 or from
// 1e21 on, with a one-digit negative exponent written without its
// leading zero.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & as \u00XX, control characters as their short escape or
// \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeCubeResponse parses a cube body in one pass, validating what
// it reads: it accepts exactly the documents json.Unmarshal accepts
// into a CubeResponse — whitespace, keys in any order, repeated keys
// (the last wins, into the slices the earlier ones left, as json
// does), unknown keys (skipped), null and escapes — and yields the
// value json.Unmarshal would. Keys must match a field's JSON name
// exactly. Equal strings inside the body's arrays share one string.
func DecodeCubeResponse(data []byte) (CubeResponse, error) {
	d := cubeDecoder{jsonReader: jsonReader{data: data}}
	var r CubeResponse
	d.space()
	var err error
	switch {
	case d.peek() == '{':
		err = d.object(1, func(key []byte) error { return d.responseField(&r, key) })
	case d.peek() == 'n':
		err = d.literal("null")
	default:
		err = d.fail("want an object")
	}
	if err == nil {
		d.space()
		if d.i < len(d.data) {
			err = d.fail("data after the top-level value")
		}
	}
	if err != nil {
		return CubeResponse{}, fmt.Errorf("%w: %w", errCubeBody, err)
	}
	return r, nil
}

var errCubeBody = errors.New("wire: bad cube body")

type cubeDecoder struct {
	jsonReader
	arena []string // backing of fresh coordinates
	coord []string // the coordinate being read
}

func (d *cubeDecoder) responseField(r *CubeResponse, key []byte) error {
	switch string(key) {
	case "plant":
		return d.stringField(&r.Plant)
	case "op":
		return d.stringField(&r.Op)
	case "dims":
		return d.stringsField(&r.Dims, 2)
	case "where":
		return d.stringsField(&r.Where, 2)
	case "members":
		return d.stringsField(&r.Members, 2)
	case "cells":
		return d.cellsField(&r.Cells)
	case "total_cells":
		return d.intField(&r.TotalCells)
	}
	return d.skip(2)
}

func (d *cubeDecoder) cellField(c *CubeCell, key []byte) error {
	switch string(key) {
	case "coord":
		return d.stringsField(&c.Coord, 4)
	case "count":
		return d.intField(&c.Count)
	case "sum":
		return d.floatField(&c.Sum)
	case "mean":
		return d.floatField(&c.Mean)
	case "min":
		return d.floatField(&c.Min)
	case "max":
		return d.floatField(&c.Max)
	}
	return d.skip(4)
}

// fill reads an array into s the way json.Unmarshal fills a slice:
// elements are decoded into what s already holds (up to its
// capacity), a null element leaves its slot as it was, the result is
// cut to the elements read, an empty array gives an empty non-nil
// slice and null gives nil.
func fill[T any](d *cubeDecoder, s []T, depth int, elem func(*T) error) ([]T, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.fail("want an array")
	}
	n := 0
	err := d.array(depth, func() error {
		if n >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if n >= len(s) {
			s = s[:n+1]
		}
		n++
		if null, err := d.null(); null || err != nil {
			return err
		}
		return elem(&s[n-1])
	})
	switch {
	case err != nil:
		return nil, err
	case n == 0:
		return []T{}, nil
	}
	return s[:n], nil
}

func (d *cubeDecoder) cellsField(dst *[]CubeCell) (err error) {
	*dst, err = fill(d, *dst, 2, func(c *CubeCell) error {
		if d.peek() != '{' {
			return d.fail("want a cell object")
		}
		return d.object(3, func(key []byte) error { return d.cellField(c, key) })
	})
	return err
}

// stringsField reads an array of strings into *dst (see fill). A
// fresh list is read into scratch and lands in the shared arena.
func (d *cubeDecoder) stringsField(dst *[]string, depth int) error {
	s := *dst
	fresh := s == nil
	if fresh {
		s = d.coord[:0]
	}
	s, err := fill(d, s, depth, func(p *string) error {
		if d.peek() != '"' {
			return d.fail("want a string")
		}
		raw, err := d.rawString()
		if err != nil {
			return err
		}
		*p = d.intern(raw)
		return nil
	})
	if fresh && len(s) > 0 {
		d.coord = s[:0]
		s = d.take(s)
	}
	*dst = s
	return err
}

// take copies a fresh string list into the arena, capped at its
// length so that no two lists share a slot.
func (d *cubeDecoder) take(s []string) []string {
	if len(d.arena)+len(s) > cap(d.arena) {
		d.arena = make([]string, 0, max(1024, len(s)))
	}
	at := len(d.arena)
	d.arena = append(d.arena, s...)
	clear(s)
	return d.arena[at : at+len(s) : at+len(s)]
}

// stringField reads a string; null leaves *dst as it was.
func (d *cubeDecoder) stringField(dst *string) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.peek() != '"' {
		return d.fail("want a string")
	}
	raw, err := d.rawString()
	if err != nil {
		return err
	}
	*dst = string(raw)
	return nil
}

// intField reads an integer literal that fits an int; null leaves
// *dst as it was.
func (d *cubeDecoder) intField(dst *int) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return d.fail("want an int")
	}
	*dst = int(v)
	return nil
}

// floatField reads a number that fits a float64; null leaves *dst as
// it was.
func (d *cubeDecoder) floatField(dst *float64) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.fail("number out of range")
	}
	*dst = v
	return nil
}
