package tag_test

import (
	"fmt"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/tag"
)

// ExampleTagger tags raw records with Liberty's expert rules.
func ExampleTagger() {
	tg := tag.NewTagger(logrec.Liberty)
	recs := []logrec.Record{
		{
			Time: time.Date(2005, 3, 7, 12, 0, 0, 0, time.UTC), Source: "ln3",
			Program: "pbs_mom", Body: "task_check, cannot tm_reply to 118552.ladmin2 task 1",
		},
		{
			Time: time.Date(2005, 3, 7, 12, 0, 5, 0, time.UTC), Source: "ln3",
			Program: "sshd", Body: "session opened for user u7 by (uid=0)",
		},
	}
	for _, r := range recs {
		if c, ok := tg.Tag(&r); ok {
			fmt.Printf("%s/%s: %s\n", c.Type.Code(), c.Name, r.Body)
		} else {
			fmt.Printf("not an alert: %s\n", r.Body)
		}
	}
	// Output:
	// S/PBS_CHK: task_check, cannot tm_reply to 118552.ladmin2 task 1
	// not an alert: session opened for user u7 by (uid=0)
}
