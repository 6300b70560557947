package corrupt

import (
	"math/rand"
	"strings"
	"testing"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/syslogng"
)

const sample = "Mar  7 14:30:05 tn42 kernel: VIPKL(1): [create_mr] MM_bld_hh_mr failed (-253:VAPI_EAGAIN)"

func TestTruncateLine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := TruncateLine(rng, sample)
	if len(got) >= len(sample) {
		t.Errorf("truncation did not shorten: %d >= %d", len(got), len(sample))
	}
	if !strings.HasPrefix(sample, got) {
		t.Error("truncation must be a prefix of the original")
	}
	if len(got) < len(sample)/2 {
		t.Error("truncation should cut in the second half")
	}
	// Short lines pass through.
	if TruncateLine(rng, "abc") != "abc" {
		t.Error("short lines must be left alone")
	}
}

func TestOverwriteLine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	donor := "Mar  7 14:30:06 tn43 kernel: Sys/mosal_iobuf.c [126]: dump iobuf at 0000010188ee7880:"
	got := OverwriteLine(rng, sample, donor)
	if got == sample {
		t.Error("overwrite should change the line")
	}
	// The result is the paper's splice shape: a prefix of the victim
	// followed by a tail of the donor.
	cut := 0
	for cut < len(got) && cut < len(sample) && got[cut] == sample[cut] {
		cut++
	}
	if cut < len(sample)/2 {
		t.Errorf("victim prefix only %d bytes", cut)
	}
	if !strings.Contains(donor, got[cut:]) {
		t.Errorf("tail %q not from donor", got[cut:])
	}
}

func TestScrambleTimestamp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got := ScrambleTimestamp(rng, sample)
	if len(got) != len(sample) {
		t.Fatal("scramble must preserve length")
	}
	if got[:15] == sample[:15] {
		t.Error("timestamp region unchanged")
	}
	if got[15:] != sample[15:] {
		t.Error("scramble must only touch the timestamp region")
	}
	// The scrambled line should now fail to parse.
	if _, perr := syslogng.Parse(got, 2005, logrec.Thunderbird); perr == nil {
		t.Error("scrambled timestamp should break parsing")
	}
}

func TestGarbleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	got := GarbleSource(rng, sample)
	if got == sample {
		t.Fatal("garble should change the line")
	}
	rec, perr := syslogng.Parse(got, 2005, logrec.Thunderbird)
	if perr != nil {
		t.Fatalf("garbled-source line should still parse (timestamp intact): %v", perr)
	}
	if rec.Source == "tn42" {
		t.Error("source should no longer be attributable")
	}
	if rec.Body != "VIPKL(1): [create_mr] MM_bld_hh_mr failed (-253:VAPI_EAGAIN)" {
		t.Errorf("body must survive source garbling, got %q", rec.Body)
	}
}

func TestGarbageTokenLooksCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tok := GarbageToken(rng, 6)
	if len(tok) != 6 {
		t.Fatalf("token length %d, want 6", len(tok))
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' || c == '.' {
			t.Fatalf("garbage token contains hostname-ish byte %q", c)
		}
	}
	if GarbageToken(rng, 0) == "" {
		t.Error("non-positive length should still produce junk")
	}
}

func TestInjectorApplyRates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lines := make([]string, 20000)
	for i := range lines {
		lines[i] = sample
	}
	inj := DefaultInjector(0.01)
	res := inj.Apply(rng, lines)
	total := res.Total()
	if total < 130 || total > 270 {
		t.Errorf("damaged %d of 20000 at p=0.01, want ~200", total)
	}
	// All four kinds should appear at this volume.
	for _, k := range []Kind{Truncated, Overwritten, BadTimestamp, BadSource} {
		if res.Damaged[k] == 0 {
			t.Errorf("kind %v never applied", k)
		}
	}
	// Nearly every damaged line actually changes; an overwrite can
	// rarely splice identical text back (donor lines are identical
	// here), so allow a tiny slack.
	changed := 0
	for _, l := range lines {
		if l != sample {
			changed++
		}
	}
	if changed > total || total-changed > 5 {
		t.Errorf("changed lines %d vs damaged count %d", changed, total)
	}
}

func TestInjectorZeroProb(t *testing.T) {
	lines := []string{sample, sample}
	res := Injector{Prob: 0}.Apply(rand.New(rand.NewSource(7)), lines)
	if res.Total() != 0 {
		t.Error("zero probability must damage nothing")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	mk := func() []string {
		lines := make([]string, 1000)
		for i := range lines {
			lines[i] = sample
		}
		return lines
	}
	a, b := mk(), mk()
	DefaultInjector(0.05).Apply(rand.New(rand.NewSource(8)), a)
	DefaultInjector(0.05).Apply(rand.New(rand.NewSource(8)), b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at line %d", i)
		}
	}
}

func TestInjectorWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inj := Injector{Prob: 1, Weights: map[Kind]float64{Truncated: 1}}
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = sample
	}
	res := inj.Apply(rng, lines)
	if res.Damaged[Truncated] != 100 {
		t.Errorf("all damage should be truncation, got %v", res.Damaged)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Truncated: "truncated", Overwritten: "overwritten",
		BadTimestamp: "bad-timestamp", BadSource: "bad-source",
		Kind(0): "unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
