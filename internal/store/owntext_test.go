package store

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"whatsupersay/internal/logrec"
)

// TestAppendOwnsText: an appended entry's text fields may be substrings
// of one large caller string (a parsed line is a substring of its read
// block), yet neither a tail entry read back by a scan nor the entries
// a mutation observer receives may point into that string — the store
// keeps its text in memory of its own.
func TestAppendOwnsText(t *testing.T) {
	block := strings.Repeat("abcdefghijklmnopqrstuvwxyz0123456789", (1<<20)/36+1)[:1<<20]
	lo := uintptr(unsafe.Pointer(unsafe.StringData(block)))
	hi := lo + uintptr(len(block))
	inBlock := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p >= lo && p < hi
	}
	entries := makeEntries(t, 200, 7)
	for i := range entries {
		off := i * 4096
		r := &entries[i].Record
		r.Source = block[off : off+5]
		r.Facility = block[off+10 : off+14]
		r.Program = block[off+20 : off+26]
		r.Body = block[off+30 : off+30+100+i]
		r.Raw = block[off : off+30+100+i]
	}
	st, err := Create(t.TempDir(), logrec.Thunderbird, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var notified []Entry
	st.SetObserver(func(m Mutation) { notified = append(notified, m.Entries...) })
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	tail := collect(t, st, Filter{})
	if len(tail) != len(entries) || len(notified) != len(entries) || st.TailLen() != len(entries) {
		t.Fatalf("scanned %d, notified %d, tail %d of %d appended", len(tail), len(notified), st.TailLen(), len(entries))
	}
	for what, got := range map[string][]Entry{"scanned tail": tail, "notified": notified} {
		for i, en := range got {
			r := en.Record
			for field, s := range map[string]string{"Source": r.Source, "Facility": r.Facility, "Program": r.Program, "Body": r.Body} {
				if inBlock(s) {
					t.Fatalf("%s entry %d: %s %q points into the caller's string", what, i, field, s)
				}
			}
		}
	}
	want := entriesNoRaw(entries)
	if !reflect.DeepEqual(tail, want) || !reflect.DeepEqual(notified, want) {
		t.Fatal("re-homed text differs from what was appended")
	}
}
