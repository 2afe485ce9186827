package vocab

import "fmt"

// validate panics when s is not sorted and duplicate-free.
func (s Set) validate() {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			panic(fmt.Sprintf("vocab: set not strictly sorted at %d: %v", i, s))
		}
	}
}
