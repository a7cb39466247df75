package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteCSV writes the frame as CSV with a header row.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.names); err != nil {
		return err
	}
	rec := make([]string, len(f.cols))
	for i := 0; i < f.nrows; i++ {
		for j := range f.cols {
			rec[j] = strconv.FormatFloat(f.cols[j][i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV stream with a header row into a frame. Every data
// cell must parse as a float64.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	cols := make([][]float64, len(header))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: CSV row has %d fields, header has %d", len(rec), len(header))
		}
		for j, cell := range rec {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV cell %q in column %q: %w", cell, header[j], err)
			}
			cols[j] = append(cols[j], v)
		}
	}
	return FromColumns(header, cols)
}

// LoadCSV reads a frame from the named CSV file.
func LoadCSV(path string) (*Frame, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return ReadCSV(file)
}
