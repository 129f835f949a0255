package endorse

import "testing"

// FuzzParse holds the policy parser to its contract on arbitrary input:
// Parse returns an error, never panics, and the canonical rendering of a
// policy it accepts parses again to the same rendering. Policies arrive
// with chaincode installs and configuration, so they are untrusted text.
// The committed corpus lives under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"'Org1.member'",
		"AND('Org1.member', OR('Org2.peer', 'Org3'))",
		"OutOf(2, 'Org1.member', 'Org2.admin', 'Org3.client')",
		"OutOf(01,'a.b.member')",
		"AND ( 'x' ,\t'y' )",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical rendering %q of %q does not parse: %v", canon, src, err)
		}
		if again.String() != canon {
			t.Fatalf("rendering is not stable: %q -> %q", canon, again.String())
		}
	})
}
