// Package corrupt injects the log damage the paper catalogs in Section
// 3.2.1: "We saw messages truncated, partially overwritten, and incorrectly
// timestamped", plus the corrupted source fields that produce the
// unattributable cluster at the bottom of Figure 2(b).
//
// Corruption operates on the wire form (rendered lines), since that is
// where the damage happens — in transit or in the logging daemon's
// buffers — and the parsers then face exactly what the authors faced.
package corrupt

import (
	"math/rand"
	"strings"
)

// Kind enumerates the damage classes.
type Kind int

// The observed damage classes.
const (
	// Truncated cuts the line short mid-token (the paper's
	// "VAPI_EAGAI" example).
	Truncated Kind = iota + 1
	// Overwritten splices the tail of a different message onto a
	// truncation point (the "VAPI_EAure = no" and
	// "VAPI_EAGSys/mosal_iobuf.c ..." examples).
	Overwritten
	// BadTimestamp scrambles the timestamp field.
	BadTimestamp
	// BadSource garbles the source field, thwarting attribution.
	BadSource
)

// String names the damage class.
func (k Kind) String() string {
	switch k {
	case Truncated:
		return "truncated"
	case Overwritten:
		return "overwritten"
	case BadTimestamp:
		return "bad-timestamp"
	case BadSource:
		return "bad-source"
	default:
		return "unknown"
	}
}

// Injector applies probabilistic damage to a line stream.
type Injector struct {
	// Prob is the per-line probability of damage.
	Prob float64
	// Weights gives the relative frequency of each damage kind; zero
	// weights disable a kind. Missing map means equal weights over all
	// kinds.
	Weights map[Kind]float64
}

// DefaultInjector returns the corruption mix used by the generator:
// truncation and overwrite dominate, with occasional timestamp and source
// damage.
func DefaultInjector(prob float64) Injector {
	return Injector{
		Prob: prob,
		Weights: map[Kind]float64{
			Truncated:    0.45,
			Overwritten:  0.30,
			BadTimestamp: 0.10,
			BadSource:    0.15,
		},
	}
}

// pick selects a damage kind by weight.
func (inj Injector) pick(rng *rand.Rand) Kind {
	kinds := []Kind{Truncated, Overwritten, BadTimestamp, BadSource}
	if len(inj.Weights) == 0 {
		return kinds[rng.Intn(len(kinds))]
	}
	total := 0.0
	for _, k := range kinds {
		total += inj.Weights[k]
	}
	if total <= 0 {
		return Truncated
	}
	x := rng.Float64() * total
	for _, k := range kinds {
		x -= inj.Weights[k]
		if x < 0 {
			return k
		}
	}
	return kinds[len(kinds)-1]
}

// Result reports what the injector did.
type Result struct {
	// Damaged counts lines damaged, by kind.
	Damaged map[Kind]int
}

// Total returns the total number of damaged lines.
func (r Result) Total() int {
	n := 0
	for _, c := range r.Damaged {
		n += c
	}
	return n
}

// Apply damages lines in place and reports what it did. prev lines supply
// overwrite tails; the first line can only be truncated.
func (inj Injector) Apply(rng *rand.Rand, lines []string) Result {
	res := Result{Damaged: make(map[Kind]int)}
	if inj.Prob <= 0 {
		return res
	}
	for i := range lines {
		if rng.Float64() >= inj.Prob {
			continue
		}
		kind := inj.pick(rng)
		switch kind {
		case Truncated:
			lines[i] = TruncateLine(rng, lines[i])
		case Overwritten:
			donor := lines[rng.Intn(len(lines))]
			lines[i] = OverwriteLine(rng, lines[i], donor)
		case BadTimestamp:
			lines[i] = ScrambleTimestamp(rng, lines[i])
		case BadSource:
			lines[i] = GarbleSource(rng, lines[i])
		}
		res.Damaged[kind]++
	}
	return res
}

// TruncateLine cuts a line at a random point in its second half, mid-token
// when possible.
func TruncateLine(rng *rand.Rand, line string) string {
	if len(line) < 8 {
		return line
	}
	cut := len(line)/2 + rng.Intn(len(line)/2)
	return line[:cut]
}

// OverwriteLine splices the tail of donor onto a truncation point of line,
// reproducing the partially-overwritten messages of Section 3.2.1.
func OverwriteLine(rng *rand.Rand, line, donor string) string {
	if len(line) < 8 || len(donor) < 8 {
		return line
	}
	cut := len(line)/2 + rng.Intn(len(line)/2)
	tailStart := rng.Intn(len(donor) / 2)
	tail := donor[len(donor)/2+tailStart/2:]
	return line[:cut] + tail
}

// ScrambleTimestamp overwrites bytes inside the leading timestamp region
// with junk so the timestamp no longer parses.
func ScrambleTimestamp(rng *rand.Rand, line string) string {
	if len(line) < 15 {
		return line
	}
	b := []byte(line)
	for j := 0; j < 3; j++ {
		b[rng.Intn(14)] = byte('!' + rng.Intn(14))
	}
	return string(b)
}

// GarbleSource replaces the source token (second whitespace field of a
// syslog line) with binary-ish junk, producing the unattributable sources
// of Figure 2(b).
func GarbleSource(rng *rand.Rand, line string) string {
	// Syslog: 15-byte timestamp, space, host.
	if len(line) < 17 {
		return line
	}
	rest := line[16:]
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return line
	}
	junk := GarbageToken(rng, sp)
	return line[:16] + junk + rest[sp:]
}

// garbageAlphabet is the junk-byte pool shared by every corruption site:
// printable punctuation plus the control bytes that real wire damage
// leaves behind.
const garbageAlphabet = "#@!?%^&*~\x7f\x01\x02"

// GarbleByte returns one junk byte from the corruption alphabet — the
// single-byte primitive behind GarbageToken, exported so transport-level
// fault injectors (package faultinject) damage bytes the same way the
// content-level injector does.
func GarbleByte(rng *rand.Rand) byte {
	return garbageAlphabet[rng.Intn(len(garbageAlphabet))]
}

// GarbageToken produces an n-byte token of non-hostname junk.
func GarbageToken(rng *rand.Rand, n int) string {
	if n <= 0 {
		n = 4
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = GarbleByte(rng)
	}
	return string(b)
}
