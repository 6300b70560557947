package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// refScanner is the reference line framer: a 64 KiB bufio.Reader, each
// line copied into a scratch buffer. The block framer must frame every
// stream exactly as it does.
type refScanner struct {
	br  *bufio.Reader
	max int
	buf []byte
}

func (ls *refScanner) next() (line []byte, oversized bool, err error) {
	ls.buf = ls.buf[:0]
	discarding := false
	for {
		frag, ferr := ls.br.ReadSlice('\n')
		if !discarding {
			ls.buf = append(ls.buf, frag...)
			if len(ls.buf) > ls.max {
				ls.buf = ls.buf[:ls.max]
				oversized = true
				discarding = true
			}
		}
		switch {
		case ferr == nil:
			return ls.trim(), oversized, nil
		case ferr == bufio.ErrBufferFull:
			continue
		case ferr == io.EOF:
			if len(ls.buf) == 0 {
				return nil, false, io.EOF
			}
			return ls.trim(), oversized, nil
		default:
			return nil, false, ferr
		}
	}
}

func (ls *refScanner) trim() []byte {
	b := ls.buf
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// framed is everything a framer produced from one stream.
type framed struct {
	lines     []string
	oversized []bool
	err       error
}

func frameAll(next func() (string, bool, error)) framed {
	var f framed
	for {
		line, over, err := next()
		if err != nil {
			f.err = err
			return f
		}
		f.lines = append(f.lines, line)
		f.oversized = append(f.oversized, over)
	}
}

func frameBlocks(r io.Reader, max int) framed {
	ls := newLineScanner(r, max)
	defer ls.release()
	return frameAll(ls.next)
}

func frameReference(r io.Reader, max int) framed {
	ls := &refScanner{br: bufio.NewReaderSize(r, 64*1024), max: max}
	return frameAll(func() (string, bool, error) {
		line, over, err := ls.next()
		return string(line), over, err
	})
}

var errFramerTest = errors.New("framer test: reader failed")

// framerReaders are the read patterns both framers see: whole reads,
// one byte at a time, half reads, data delivered with io.EOF, and a
// stream that ends in a permanent error instead of io.EOF.
var framerReaders = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
	{"then-error", func(b []byte) io.Reader {
		return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(errFramerTest))
	}},
}

var framerMaxes = []int{1, 2, 7, 128, 1 << 20}

func checkFramerMatchesReference(t *testing.T, data []byte, max int) {
	t.Helper()
	for _, rd := range framerReaders {
		got := frameBlocks(rd.wrap(data), max)
		want := frameReference(rd.wrap(data), max)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s reader, max %d: block framer %d lines (err %v), reference %d lines (err %v)",
				rd.name, max, len(got.lines), got.err, len(want.lines), want.err)
		}
	}
}

// FuzzFramerMatchesReference: on arbitrary bytes, every MaxLineBytes and
// every read pattern, the block framer yields the reference framer's
// lines, oversized flags and terminal error.
func FuzzFramerMatchesReference(f *testing.F) {
	f.Add([]byte("a\nbb\nccc\n"), uint8(0))
	f.Add([]byte("torn tail"), uint8(1))
	f.Add([]byte("crlf\r\nline\r\n\r\n"), uint8(2))
	f.Add([]byte("1234567\n12345678\n123456\r\n"), uint8(2))
	f.Add([]byte("ab\rcd\n\r"), uint8(3))
	f.Add([]byte("\n\n\n"), uint8(4))
	f.Add(bytes.Repeat([]byte("x"), 300), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		checkFramerMatchesReference(t, data, framerMaxes[int(sel)%len(framerMaxes)])
	})
}

// TestFramerBlockBoundaries pins the cases block framing adds: a line
// straddling a block boundary, a line longer than a block, an oversized
// torn tail, and a CRLF whose '\r' ends one block and whose '\n' starts
// the next — each equal to the reference under every reader and cap.
func TestFramerBlockBoundaries(t *testing.T) {
	line := func(n int, c byte) string { return strings.Repeat(string(c), n) }
	cases := []struct {
		name string
		text string
		max  int
		want []string
		over []bool
	}{
		{
			name: "straddles-block",
			text: line(blockSize-10, 'a') + "\n" + line(40, 'b') + "\n" + "c\n",
			max:  1 << 20,
			want: []string{line(blockSize-10, 'a'), line(40, 'b'), "c"},
			over: []bool{false, false, false},
		},
		{
			name: "longer-than-block",
			text: "x\n" + line(3*blockSize+5, 'L') + "\n" + "y\n",
			max:  1 << 20,
			want: []string{"x", line(3*blockSize+5, 'L'), "y"},
			over: []bool{false, false, false},
		},
		{
			name: "longer-than-block-capped",
			text: line(2*blockSize, 'L') + "\nz\n",
			max:  blockSize + 3,
			want: []string{line(blockSize+3, 'L'), "z"},
			over: []bool{true, false},
		},
		{
			name: "oversized-torn-tail",
			text: "ok\n" + line(blockSize+100, 'T'),
			max:  200,
			want: []string{"ok", line(200, 'T')},
			over: []bool{false, true},
		},
		{
			name: "crlf-split-across-blocks",
			text: line(blockSize-1, 'r') + "\r\n" + "next\r\n",
			max:  1 << 20,
			want: []string{line(blockSize-1, 'r'), "next"},
			over: []bool{false, false},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := frameBlocks(strings.NewReader(c.text), c.max)
			if got.err != io.EOF || !reflect.DeepEqual(got.lines, c.want) || !reflect.DeepEqual(got.oversized, c.over) {
				t.Fatalf("framed %d lines (oversized %v, err %v), want %d (oversized %v)",
					len(got.lines), got.oversized, got.err, len(c.want), c.over)
			}
			for _, max := range append(framerMaxes, c.max) {
				checkFramerMatchesReference(t, []byte(c.text), max)
			}
		})
	}
}
