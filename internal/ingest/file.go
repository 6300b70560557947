package ingest

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"whatsupersay/internal/logrec"
)

// Logs on disk are routinely gzipped (Table 2 reports compressed sizes
// because that is how the archives are kept); the file helpers here make
// .gz transparent for both the CLI and library users.

// Open opens a log file for reading, transparently decompressing .gz.
// The returned closer closes both layers.
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: open %s: %w", path, err)
	}
	return &readCloser{Reader: zr, closers: []io.Closer{zr, f}}, nil
}

// Create opens a log file for writing, transparently compressing .gz and
// buffering either way. Close flushes everything.
func Create(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		return &writeCloser{Writer: zw, closers: []io.Closer{zw, f}}, nil
	}
	bw := bufio.NewWriter(f)
	return &writeCloser{Writer: bw, closers: []io.Closer{flushCloser{bw}, f}}, nil
}

type readCloser struct {
	io.Reader
	closers []io.Closer
}

func (rc *readCloser) Close() error {
	var first error
	for _, c := range rc.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type writeCloser struct {
	io.Writer
	closers []io.Closer
}

func (wc *writeCloser) Close() error {
	var first error
	for _, c := range wc.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushCloser adapts a bufio.Writer to io.Closer.
type flushCloser struct{ w *bufio.Writer }

func (f flushCloser) Close() error { return f.w.Flush() }

// WriteTree writes records into the per-source directory layout: one
// file per source under dir (gzipped when gz is set), named
// <source>.log[.gz]; records with empty or corrupted sources go to
// _unattributed.log. render must produce the record's wire line.
func WriteTree(dir string, recs []logrec.Record, render func(logrec.Record) string, gz bool) error {
	bySource := make(map[string][]string)
	for _, r := range recs {
		name := r.Source
		if name == "" || !plainToken(name) {
			name = "_unattributed"
		}
		bySource[name] = append(bySource[name], render(r))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for src, lines := range bySource {
		name := src + ".log"
		if gz {
			name += ".gz"
		}
		if _, err := WriteLines(filepath.Join(dir, name), lines); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
	}
	return nil
}

// plainToken reports whether a source is safe as a file name.
func plainToken(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_':
		default:
			return false
		}
	}
	return s != "" && s[0] != '.'
}

// WriteLines writes a log (one message per line) to path, gzipping when
// the path ends in .gz. It returns the number of bytes written before
// compression.
func WriteLines(path string, lines []string) (int64, error) {
	w, err := Create(path)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, l := range lines {
		wn, err := io.WriteString(w, l)
		if err != nil {
			w.Close()
			return n, err
		}
		n += int64(wn)
		if _, err := io.WriteString(w, "\n"); err != nil {
			w.Close()
			return n, err
		}
		n++
	}
	return n, w.Close()
}
