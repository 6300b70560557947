package syslogng

import "math/rand"

// Relay models the syslog-ng collection path of Thunderbird, Spirit, and
// Liberty: each node's syslogd sends messages over UDP to a logging server
// (tbird-admin1, sadmin2, ladmin2 respectively), which files them into a
// per-source directory structure. UDP gives no delivery guarantee, so a
// fraction of messages is lost, and loss worsens under contention —
// modeled here as a loss probability that scales with the instantaneous
// burst length.
type Relay struct {
	// Server is the logging server's node name.
	Server string
	// BaseLossProb is the per-message drop probability under light load.
	BaseLossProb float64
	// ContentionLossProb is the additional drop probability applied to
	// messages inside heavy bursts (more than ContentionBurst messages
	// with the same timestamp second).
	ContentionLossProb float64
	// ContentionBurst is the same-second message count past which the
	// contention penalty applies. Zero disables the contention model.
	ContentionBurst int
}

// DefaultRelay returns the loss model used for the three syslog systems in
// the study's generator: light ambient loss plus meaningful loss inside
// storms.
func DefaultRelay(server string) Relay {
	return Relay{
		Server:             server,
		BaseLossProb:       0.001,
		ContentionLossProb: 0.01,
		ContentionBurst:    200,
	}
}

// Deliver applies the loss model to a time-sorted message stream,
// filtering msgs in place, and returns the messages that reach the
// logging server, still in order, with the dropped count for
// ground-truth accounting. relayed reports whether a message travels
// over this relay and its timestamp's Unix second; messages on other
// paths always arrive and draw no randomness.
func Deliver[M any](rl Relay, rng *rand.Rand, msgs []M, relayed func(M) (sec int64, ok bool)) (kept []M, dropped int) {
	// Count same-second occupancy to detect contention.
	perSecond := make(map[int64]int, len(msgs)/8+1)
	if rl.ContentionBurst > 0 {
		for _, m := range msgs {
			if sec, ok := relayed(m); ok {
				perSecond[sec]++
			}
		}
	}
	kept = msgs[:0]
	for _, m := range msgs {
		if sec, ok := relayed(m); ok {
			p := rl.BaseLossProb
			if rl.ContentionBurst > 0 && perSecond[sec] > rl.ContentionBurst {
				p += rl.ContentionLossProb
			}
			if p > 0 && rng.Float64() < p {
				dropped++
				continue
			}
		}
		kept = append(kept, m)
	}
	return kept, dropped
}
