package comms

import "testing"

// The state names are what GET /cluster prints, so they never change; an
// unknown value prints as such.
func TestNamesAreStable(t *testing.T) {
	for s, want := range map[MemberState]string{Joined: "joined", Suspect: "suspect", Dead: "dead", Dead + 1: "unknown"} {
		if got := s.String(); got != want {
			t.Errorf("state %d is %q, want %q", int(s), got, want)
		}
	}
}
