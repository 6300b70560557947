package catalog_test

import (
	"fmt"
	"math/rand"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
)

// ExampleLookup retrieves a Table 4 category and exercises its rule and
// body generator — the shared source of truth between the tagger and the
// simulator.
func ExampleLookup() {
	c, ok := catalog.Lookup(logrec.Spirit, "EXT_CCISS")
	if !ok {
		fmt.Println("missing")
		return
	}
	fmt.Printf("%s / %s: raw %d, filtered %d (mean burst ~%.1fM)\n",
		c.Type.Code(), c.Name, c.Raw, c.Filtered, float64(c.Raw)/float64(c.Filtered)/1e6)
	body := c.Gen(rand.New(rand.NewSource(1)))
	fmt.Printf("generated body matches its own rule: %v\n",
		c.Matches(&logrec.Record{Program: c.Program, Body: body}))
	// Output:
	// H / EXT_CCISS: raw 103818910, filtered 29 (mean burst ~3.6M)
	// generated body matches its own rule: true
}

// ExampleBySystem lists a system's categories in Table 4 order.
func ExampleBySystem() {
	for _, c := range catalog.BySystem(logrec.Liberty) {
		fmt.Printf("%s/%s %d\n", c.Type.Code(), c.Name, c.Raw)
	}
	// Output:
	// S/PBS_CHK 2231
	// S/PBS_BFD 115
	// S/PBS_CON 47
	// H/GM_PAR 44
	// S/GM_LANAI 13
	// S/GM_MAP 2
}
