// Package rules implements an external rule language for alert tagging,
// modeled on the logsurfer/awk heuristics the administrators supplied
// (Section 3.2: "The heuristics provided by the administrators were often
// in the form of regular expressions amenable for consumption by the
// logsurfer utility"). It lets a rule set live in a text file, be
// reviewed by the administrator who owns it, and be loaded at run time —
// the operational workflow behind Table 4.
//
// One rule per line:
//
//	# Spirit disk errors
//	H EXT_FS   /kernel: EXT3-fs error/
//	S PBS_CHK  program == "pbs_mom" && /task_check, cannot tm_reply/
//	I KERNPAN  ($5 == "KERNEL" && /kernel panic/)
//
// An expression is a conjunction of terms:
//
//	/re/              body matches re
//	body ~ /re/       same, explicit
//	program == "s"    program tag equals s
//	facility ~ /re/   facility matches re
//	severity == NAME  native severity equals NAME (either scale)
//	$5 == "s"         awk-style alias for facility (the paper's BG/L column)
//
// Every field (body, program, facility or $5, source or host, severity)
// takes both operators: == compares exactly, ~ matches a regexp anywhere
// in the field. Terms may be parenthesized; `&&` is the only connective,
// matching the shape of every rule in the study.
//
// A rule compiles into a *catalog.Category, the type of the built-in
// rules, so a loaded rule file tags through the same tag.Tagger: its
// first body regexp and exact facility and program tests take the
// category's Pattern, Facility and Program, and every other term
// becomes one of the category's extra catalog.Terms.
package rules

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strings"
	"unicode"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/tag"
)

// ParseError reports where a rule file failed to parse.
type ParseError struct {
	Line   int
	Text   string
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("rules: line %d: %s (in %q)", e.Line, e.Reason, e.Text)
}

// Load parses a rule file for one system into a tagger that tries its
// rules in file order.
func Load(r io.Reader, sys logrec.System) (*tag.Tagger, error) {
	var rules []*catalog.Category
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rule, err := ParseRule(sys, line)
		if err != nil {
			if pe, ok := err.(*ParseError); ok {
				pe.Line = lineNo
				return nil, pe
			}
			return nil, fmt.Errorf("rules: line %d: %w", lineNo, err)
		}
		rules = append(rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	return tag.New(rules), nil
}

// ParseRule parses one "TYPE NAME expr" line into a rule of system sys.
func ParseRule(sys logrec.System, line string) (*catalog.Category, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return nil, &ParseError{Text: line, Reason: "want: TYPE NAME expression"}
	}
	var ty catalog.Type
	switch fields[0] {
	case "H":
		ty = catalog.Hardware
	case "S":
		ty = catalog.Software
	case "I":
		ty = catalog.Indeterminate
	default:
		return nil, &ParseError{Text: line, Reason: fmt.Sprintf("unknown type %q (want H, S, or I)", fields[0])}
	}
	// The expression is what follows the second field, cut by position:
	// the name may also occur earlier in the line, as in "S S ...".
	expr := strings.TrimSpace(line)
	for range 2 {
		expr = strings.TrimLeftFunc(expr[strings.IndexFunc(expr, unicode.IsSpace):], unicode.IsSpace)
	}
	p := &exprParser{input: expr}
	if err := p.parse(); err != nil {
		return nil, &ParseError{Text: line, Reason: err.Error()}
	}
	var pattern, facility, program string
	var extra []catalog.Term
	for _, t := range p.terms {
		switch {
		case t.Field == catalog.FieldBody && t.Regexp != nil && pattern == "":
			pattern = t.Regexp.String()
		case t.Field == catalog.FieldFacility && t.Regexp == nil && facility == "" && t.Value != "":
			facility = t.Value
		case t.Field == catalog.FieldProgram && t.Regexp == nil && program == "" && t.Value != "":
			program = t.Value
		default:
			extra = append(extra, t)
		}
	}
	c, err := catalog.NewRule(sys, fields[1], ty, pattern, facility, program, extra)
	if err != nil {
		return nil, &ParseError{Text: line, Reason: err.Error()}
	}
	return c, nil
}

// exprParser is a tiny recursive-descent parser over the expression
// grammar.
type exprParser struct {
	input string
	pos   int
	terms []catalog.Term
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	if p.pos >= len(p.input) {
		return 0
	}
	return p.input[p.pos]
}

// parse := conjunction, with nothing after it
func (p *exprParser) parse() error {
	if err := p.parseConjunction(); err != nil {
		return err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return fmt.Errorf("trailing input at byte %d: %q", p.pos, p.input[p.pos:])
	}
	return nil
}

// parseConjunction := term ('&&' term)*
func (p *exprParser) parseConjunction() error {
	for {
		if err := p.parseTerm(); err != nil {
			return err
		}
		p.skipSpace()
		if !strings.HasPrefix(p.input[p.pos:], "&&") {
			return nil
		}
		p.pos += 2
	}
}

// parseTerm := '(' conjunction ')' | '/'re'/' | field op value
func (p *exprParser) parseTerm() error {
	p.skipSpace()
	switch p.peek() {
	case '(':
		p.pos++
		if err := p.parseConjunction(); err != nil {
			return err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return fmt.Errorf("missing ) at byte %d", p.pos)
		}
		p.pos++
		return nil
	case '/':
		re, err := p.parseRegex()
		if err != nil {
			return err
		}
		p.terms = append(p.terms, catalog.Term{Field: catalog.FieldBody, Regexp: re})
		return nil
	default:
		return p.parseFieldTerm()
	}
}

// parseRegex consumes /.../ honoring backslash escapes.
func (p *exprParser) parseRegex() (*regexp.Regexp, error) {
	if p.peek() != '/' {
		return nil, fmt.Errorf("expected / at byte %d", p.pos)
	}
	p.pos++
	var b strings.Builder
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c == '\\' && p.pos+1 < len(p.input) {
			next := p.input[p.pos+1]
			if next == '/' {
				b.WriteByte('/')
			} else {
				b.WriteByte('\\')
				b.WriteByte(next)
			}
			p.pos += 2
			continue
		}
		if c == '/' {
			p.pos++
			re, err := regexp.Compile(b.String())
			if err != nil {
				return nil, fmt.Errorf("bad regexp %q: %v", b.String(), err)
			}
			return re, nil
		}
		b.WriteByte(c)
		p.pos++
	}
	return nil, fmt.Errorf("unterminated regexp")
}

// fieldNames maps a field name to the record field it tests. $5 is the
// paper's awk alias for the BG/L facility column.
var fieldNames = map[string]catalog.Field{
	"body":     catalog.FieldBody,
	"program":  catalog.FieldProgram,
	"facility": catalog.FieldFacility,
	"$5":       catalog.FieldFacility,
	"source":   catalog.FieldSource,
	"host":     catalog.FieldSource,
	"severity": catalog.FieldSeverity,
}

// parseFieldTerm := field ('~' regex | '==' value)
func (p *exprParser) parseFieldTerm() error {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c == ' ' || c == '\t' || c == '~' || c == '=' {
			break
		}
		p.pos++
	}
	name := p.input[start:p.pos]
	if name == "" {
		return fmt.Errorf("expected a term at byte %d", start)
	}
	field, ok := fieldNames[name]
	if !ok {
		return fmt.Errorf("unknown field %q", name)
	}
	p.skipSpace()
	t := catalog.Term{Field: field}
	var err error
	switch {
	case p.peek() == '~':
		p.pos++
		p.skipSpace()
		t.Regexp, err = p.parseRegex()
	case strings.HasPrefix(p.input[p.pos:], "=="):
		p.pos += 2
		p.skipSpace()
		t.Value, err = p.parseValue()
	default:
		return fmt.Errorf("expected ~ or == after field %q", name)
	}
	if err != nil {
		return err
	}
	p.terms = append(p.terms, t)
	return nil
}

// parseValue := '"' string '"' | bare word
func (p *exprParser) parseValue() (string, error) {
	if p.peek() == '"' {
		p.pos++
		start := p.pos
		for p.pos < len(p.input) && p.input[p.pos] != '"' {
			p.pos++
		}
		if p.pos >= len(p.input) {
			return "", fmt.Errorf("unterminated string")
		}
		val := p.input[start:p.pos]
		p.pos++
		return val, nil
	}
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] != ' ' && p.input[p.pos] != ')' {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected a value at byte %d", start)
	}
	return p.input[start:p.pos], nil
}

// Export renders a system's catalog rules in the file format, so the
// built-in rule sets can be externalized, reviewed, and re-loaded.
func Export(w io.Writer, sys logrec.System) error {
	cats := catalog.BySystem(sys)
	if _, err := fmt.Fprintf(w, "# %s expert rules (%d categories), Table 4 order\n", sys, len(cats)); err != nil {
		return err
	}
	for _, c := range cats {
		if _, err := fmt.Fprintf(w, "%s %-10s %s\n", c.Type.Code(), c.Name, Expr(c)); err != nil {
			return err
		}
	}
	return nil
}

// Expr renders a built-in rule's expression in the file format: the
// exact facility and program tests, then the body regexp.
func Expr(c *catalog.Category) string {
	var terms []string
	if c.Facility != "" {
		terms = append(terms, fmt.Sprintf("$5 == %q", c.Facility))
	}
	if c.Program != "" {
		terms = append(terms, fmt.Sprintf("program == %q", c.Program))
	}
	terms = append(terms, "/"+strings.ReplaceAll(c.Pattern, "/", `\/`)+"/")
	return strings.Join(terms, " && ")
}

// LoadSystem round-trips a system's built-in rules through the file
// format, returning a tagger equivalent to tag.NewTagger(sys).
func LoadSystem(sys logrec.System) (*tag.Tagger, error) {
	var b strings.Builder
	if err := Export(&b, sys); err != nil {
		return nil, err
	}
	return Load(strings.NewReader(b.String()), sys)
}
