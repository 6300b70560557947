package syslogng

import (
	"math/rand"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

func relayStream(n int, sameSecond bool) []logrec.Record {
	base := time.Date(2005, time.March, 7, 12, 0, 0, 0, time.UTC)
	recs := make([]logrec.Record, n)
	for i := range recs {
		ts := base
		if !sameSecond {
			ts = base.Add(time.Duration(i) * time.Second)
		}
		recs[i] = logrec.Record{Time: ts, Seq: uint64(i), Source: "ln1", Body: "x"}
	}
	return recs
}

// deliver runs a record stream through the relay: every record travels
// over it.
func deliver(rl Relay, seed int64, recs []logrec.Record) ([]logrec.Record, int) {
	return Deliver(rl, rand.New(rand.NewSource(seed)), recs,
		func(r logrec.Record) (int64, bool) { return r.Time.Unix(), true })
}

func TestRelayNoLoss(t *testing.T) {
	rl := Relay{Server: "ladmin2"} // zero probabilities
	kept, dropped := deliver(rl, 1, relayStream(1000, false))
	if dropped != 0 || len(kept) != 1000 {
		t.Errorf("lossless relay dropped %d", dropped)
	}
}

func TestRelayBaseLoss(t *testing.T) {
	rl := Relay{Server: "ladmin2", BaseLossProb: 0.1}
	kept, dropped := deliver(rl, 2, relayStream(20000, false))
	if dropped == 0 {
		t.Fatal("expected some drops at 10% loss")
	}
	frac := float64(dropped) / 20000
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("drop rate %.3f, want ~0.10", frac)
	}
	if len(kept)+dropped != 20000 {
		t.Error("kept+dropped must equal input")
	}
}

func TestRelayContentionLoss(t *testing.T) {
	rl := Relay{Server: "ladmin2", ContentionLossProb: 0.5, ContentionBurst: 100}
	// 5000 messages in the same second: contention penalty applies.
	_, droppedBurst := deliver(rl, 3, relayStream(5000, true))
	// 5000 messages spread over distinct seconds: no contention.
	_, droppedSpread := deliver(rl, 3, relayStream(5000, false))
	if droppedSpread != 0 {
		t.Errorf("spread stream dropped %d without base loss", droppedSpread)
	}
	if droppedBurst < 2000 {
		t.Errorf("burst stream dropped %d, want ~2500 under contention", droppedBurst)
	}
}

func TestRelayDeterminism(t *testing.T) {
	rl := DefaultRelay("sadmin2")
	run := func() int {
		_, dropped := deliver(rl, 9, relayStream(10000, false))
		return dropped
	}
	if run() != run() {
		t.Error("same seed must produce identical drops")
	}
}

// TestRelayOtherPathsLossless: messages that do not travel over the
// relay always arrive, keep their order, and draw no randomness — the
// relayed ones see exactly the drops they would alone.
func TestRelayOtherPathsLossless(t *testing.T) {
	rl := Relay{Server: "sadmin2", BaseLossProb: 0.3}
	mixed := relayStream(2000, false)
	relayed := func(r logrec.Record) (int64, bool) { return r.Time.Unix(), r.Seq%2 == 0 }
	kept, dropped := Deliver(rl, rand.New(rand.NewSource(4)), mixed, relayed)

	var alone []logrec.Record
	for _, r := range relayStream(2000, false) {
		if r.Seq%2 == 0 {
			alone = append(alone, r)
		}
	}
	keptAlone, droppedAlone := deliver(rl, 4, alone)
	if dropped != droppedAlone || dropped == 0 {
		t.Fatalf("dropped %d with other paths mixed in, %d alone", dropped, droppedAlone)
	}
	var odd, even int
	last := -1
	for _, r := range kept {
		if int(r.Seq) <= last {
			t.Fatal("delivery reordered the stream")
		}
		last = int(r.Seq)
		if r.Seq%2 == 1 {
			odd++
		} else if r.Seq != keptAlone[even].Seq {
			t.Fatalf("relayed survivor %d differs from the relay-only run", r.Seq)
		} else {
			even++
		}
	}
	if odd != 1000 {
		t.Errorf("%d of 1000 off-relay messages arrived", odd)
	}
}
