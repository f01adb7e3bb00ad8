package wire

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DecodeCSV converts a plantsim trace into records, dispatching on the
// header row between the two schemas: machine-sensor rows
// "machine,job,phase,t,<sensor...>" and environment rows
// "t,<env-sensor...>". It is a client helper (`hodctl replay` decodes
// each row batch with it and sends the records as a binary frame); the
// server takes no CSV body.
func DecodeCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csv: missing header: %w", err)
	}
	switch {
	case len(header) >= 5 && header[0] == "machine" && header[1] == "job" &&
		header[2] == "phase" && header[3] == "t":
		return decodeMachineCSV(cr, header[4:])
	case len(header) >= 2 && header[0] == "t":
		return decodeEnvCSV(cr, header[1:])
	default:
		return nil, fmt.Errorf("csv: unrecognised header %q (want machine,job,phase,t,... or t,...)",
			strings.Join(header, ","))
	}
}

func decodeMachineCSV(cr *csv.Reader, sensors []string) ([]Record, error) {
	var out []Record
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csv line %d: %w", line+1, err)
		}
		line++
		if len(rec) != 4+len(sensors) {
			return nil, fmt.Errorf("csv line %d: %d fields, want %d", line, len(rec), 4+len(sensors))
		}
		t, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("csv line %d: bad t %q", line, rec[3])
		}
		for si, sensor := range sensors {
			v, err := strconv.ParseFloat(rec[4+si], 64)
			if err != nil {
				return nil, fmt.Errorf("csv line %d: bad %s value %q", line, sensor, rec[4+si])
			}
			out = append(out, Record{
				Machine: rec[0], Job: rec[1], Phase: rec[2],
				Sensor: sensor, T: t, Value: v,
			})
		}
		if len(out) > MaxBatchRecords {
			return nil, fmt.Errorf("batch exceeds the %d-record cap", MaxBatchRecords)
		}
	}
	return out, nil
}

func decodeEnvCSV(cr *csv.Reader, sensors []string) ([]Record, error) {
	var out []Record
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csv line %d: %w", line+1, err)
		}
		line++
		if len(rec) != 1+len(sensors) {
			return nil, fmt.Errorf("csv line %d: %d fields, want %d", line, len(rec), 1+len(sensors))
		}
		t, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("csv line %d: bad t %q", line, rec[0])
		}
		for si, sensor := range sensors {
			v, err := strconv.ParseFloat(rec[1+si], 64)
			if err != nil {
				return nil, fmt.Errorf("csv line %d: bad %s value %q", line, sensor, rec[1+si])
			}
			out = append(out, Record{Env: true, Sensor: sensor, T: t, Value: v})
		}
		if len(out) > MaxBatchRecords {
			return nil, fmt.Errorf("batch exceeds the %d-record cap", MaxBatchRecords)
		}
	}
	return out, nil
}
