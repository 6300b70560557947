package rules_test

import (
	"fmt"
	"strings"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/rules"
)

// ExampleLoad loads an administrator-authored rule file and tags a
// record with it.
func ExampleLoad() {
	file := `
# Spirit rules, logsurfer style
H EXT_FS   program == "kernel" && /EXT3-fs error/
S PBS_CHK  program == "pbs_mom" && /task_check, cannot tm_reply/
`
	tg, err := rules.Load(strings.NewReader(file), logrec.Spirit)
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	rec := logrec.Record{
		Program: "kernel",
		Body:    "EXT3-fs error (device cciss/c0d0p5) in ext3_reserve_inode_write: IO failure",
	}
	if r, ok := tg.Tag(&rec); ok {
		fmt.Printf("%s %s\n", r.Type.Code(), r.Name)
	}
	// Output:
	// H EXT_FS
}

// ExampleExport emits a system's built-in rules in the loadable format.
func ExampleExport() {
	var b strings.Builder
	if err := rules.Export(&b, logrec.Liberty); err != nil {
		fmt.Println("export:", err)
		return
	}
	for _, line := range strings.Split(b.String(), "\n")[:3] {
		fmt.Println(line)
	}
	// Output:
	// # Liberty expert rules (6 categories), Table 4 order
	// S PBS_CHK    program == "pbs_mom" && /task_check, cannot tm_reply/
	// S PBS_BFD    program == "pbs_mom" && /Bad file descriptor \(9\) in tm_request/
}
