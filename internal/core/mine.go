package core

import (
	"whatsupersay/internal/mining"
)

// MiningReport is the template-discovery experiment: mined templates over
// a study's message bodies, scored against the expert tagging.
type MiningReport struct {
	// Templates is the mined list, by descending count.
	Templates []mining.Template
	// Messages is the number of bodies mined.
	Messages int
	// AlertPurity is cluster purity against expert category labels
	// (non-alerts labeled ""): how well unsupervised template discovery
	// recovers the administrators' categories.
	AlertPurity float64
}

// MineTemplates mines message templates from a study's records. maxBodies
// bounds work on huge logs (0 = all).
func MineTemplates(s *Study, cfg mining.Config, maxBodies int) MiningReport {
	n := len(s.Records)
	if maxBodies > 0 && n > maxBodies {
		n = maxBodies
	}
	bodies := make([]string, 0, n)
	labels := make([]string, 0, n)
	for i := range s.Records[:n] {
		r := &s.Records[i]
		bodies = append(bodies, r.Body)
		if c, ok := s.Tagger.Tag(r); ok {
			labels = append(labels, c.Name)
		} else {
			labels = append(labels, "")
		}
	}
	return MiningReport{
		Templates:   mining.Mine(bodies, cfg),
		Messages:    len(bodies),
		AlertPurity: mining.Purity(bodies, func(i int) string { return labels[i] }, cfg),
	}
}
