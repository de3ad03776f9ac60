package comms

import "testing"

// The state and event names are what GET /cluster and the trace export
// print, so they never change; an unknown value prints as such.
func TestNamesAreStable(t *testing.T) {
	for s, want := range map[MemberState]string{Joined: "joined", Suspect: "suspect", Dead: "dead", Dead + 1: "unknown"} {
		if got := s.String(); got != want {
			t.Errorf("state %d is %q, want %q", int(s), got, want)
		}
	}
	for k, want := range map[MemberEventKind]string{MemberRegistered: "registered", MemberRejoined: "rejoined",
		MemberSuspect: "suspect", MemberRestored: "restored", MemberLost: "lost", MemberLost + 1: "unknown"} {
		if got := k.String(); got != want {
			t.Errorf("event %d is %q, want %q", int(k), got, want)
		}
	}
}
