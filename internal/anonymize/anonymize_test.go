package anonymize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/tag"
)

func TestUserPseudonymStable(t *testing.T) {
	a := New("key1")
	if a.User("alice") != a.User("alice") {
		t.Error("same token must map to the same pseudonym")
	}
	if a.User("alice") == a.User("bob") {
		t.Error("different tokens must not collide")
	}
	b := New("key2")
	if a.User("alice") == b.User("alice") {
		t.Error("different keys must produce different pseudonyms")
	}
	if !looksPseudonymous(a.User("alice")) {
		t.Errorf("pseudonym shape wrong: %q", a.User("alice"))
	}
}

func TestIPPreservesSubnet(t *testing.T) {
	a := New("k")
	got := a.IP("134.253.16.42")
	if !strings.HasPrefix(got, "134.253.") {
		t.Errorf("IP /16 prefix lost: %q", got)
	}
	if got == "134.253.16.42" {
		t.Error("host part not rewritten")
	}
	if a.IP("134.253.16.42") != got {
		t.Error("IP mapping must be stable")
	}
	if a.IP("134.253.16.43") == got {
		t.Error("distinct IPs must map distinctly (with overwhelming probability)")
	}
}

func TestLineRewritesSensitiveTokens(t *testing.T) {
	a := New("k")
	cases := []struct {
		in          string
		mustLose    string
		mustSurvive string
	}{
		{
			"Mar  7 14:30:05 ln1 sshd: session opened for user carol by (uid=0)",
			"carol", "session opened for user",
		},
		{
			"Mar  7 14:30:05 ln1 sshd: Accepted publickey for user dave from 134.253.91.163 port 2222 ssh2",
			"dave", "Accepted publickey",
		},
		{
			"Mar  7 14:30:05 ln1 automount: mounting /home/edith failed",
			"edith", "mounting /home/",
		},
	}
	for _, tc := range cases {
		out := a.Line(tc.in)
		if strings.Contains(out, tc.mustLose) {
			t.Errorf("sensitive token %q survived: %q", tc.mustLose, out)
		}
		if !strings.Contains(out, tc.mustSurvive) {
			t.Errorf("structure %q lost: %q", tc.mustSurvive, out)
		}
	}
}

func TestLineLeavesAlertBodiesIntact(t *testing.T) {
	a := New("k")
	// Alert message shapes carry no usernames; anonymization must not
	// disturb them (tagging invariance).
	bodies := []string{
		"Mar  7 14:30:05 sn373 kernel: cciss: cmd 0000010000a60000 has CHECK CONDITION, sense key = 0x3",
		"Mar  7 14:30:05 ln3 pbs_mom: task_check, cannot tm_reply to 123456.ladmin2 task 1",
		"2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL FATAL data TLB error interrupt",
	}
	for _, line := range bodies {
		if got := a.Line(line); got != line {
			t.Errorf("alert line disturbed:\n in: %q\nout: %q", line, got)
		}
	}
}

func TestLinesCountsChanges(t *testing.T) {
	a := New("k")
	lines := []string{
		"Mar  7 14:30:05 ln1 sshd: session opened for user frank by (uid=0)",
		"Mar  7 14:30:05 ln1 kernel: eth0: link up",
	}
	n := a.Lines(lines)
	if n != 1 {
		t.Errorf("changed = %d, want 1", n)
	}
	if strings.Contains(lines[0], "frank") {
		t.Error("in-place rewrite failed")
	}
}

func TestAuditFindsResidualLeaks(t *testing.T) {
	a := New("k")
	lines := []string{
		"Mar  7 14:30:05 ln1 sshd: session opened for user " + a.User("grace") + " by (uid=0)",
		"Mar  7 14:30:05 ln1 sshd: session opened for user harriet by (uid=0)", // not anonymized
	}
	leaks := a.Audit(lines)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d, want 1", len(leaks))
	}
	if leaks[0].Token != "harriet" || leaks[0].LineIndex != 1 || leaks[0].Kind != "username" {
		t.Errorf("leak = %+v", leaks[0])
	}
}

func TestAuditCleanAfterAnonymize(t *testing.T) {
	a := New("k")
	lines := []string{
		"Mar  7 14:30:05 ln1 sshd: session opened for user iris by (uid=0)",
		"Mar  7 14:30:05 ln1 sshd: Accepted publickey for user jack from 10.1.2.3 port 99 ssh2",
	}
	a.Lines(lines)
	if leaks := a.Audit(lines); len(leaks) != 0 {
		t.Errorf("audit found %d leaks after anonymization: %+v", len(leaks), leaks)
	}
}

// TestUsernameRewriteIdempotent: re-anonymizing an anonymized line must
// not scramble usernames further (a property quick-checked over random
// user tokens).
func TestUsernameRewriteIdempotent(t *testing.T) {
	a := New("k")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('0'+rng.Intn(10)))
		line := "Mar  7 14:30:05 ln1 sshd: session opened for user " + name + " by (uid=0)"
		once := a.Line(line)
		twice := a.Line(once)
		// Compare everything except IP rewrites (there are none here).
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTaggingInvariantUnderAnonymization is the release-readiness
// property: expert-rule tagging must not change when a log is
// pseudonymized, because the rules key on message structure, not
// identities.
func TestTaggingInvariantUnderAnonymization(t *testing.T) {
	a := New("k")
	tg := tag.NewTagger(logrec.Liberty)
	recs := []logrec.Record{
		{Program: "pbs_mom", Body: "task_check, cannot tm_reply to 123.ladmin2 task 1"},
		{Program: "sshd", Body: "session opened for user kate by (uid=0)"},
		{Program: "kernel", Body: "GM: LANai is not running. Allowing port=0 open for debugging"},
	}
	for _, r := range recs {
		_, before := tg.Tag(&r)
		anon := r
		anon.Body = a.Line(r.Body)
		_, after := tg.Tag(&anon)
		if before != after {
			t.Errorf("tagging changed under anonymization for %q", r.Body)
		}
	}
}
