package fault

import (
	"strings"
	"testing"

	"pdq/internal/sim"
)

func TestValidateOK(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LinkDown, Host: -1, Down: 5 * sim.Millisecond, Up: 25 * sim.Millisecond},
		{Kind: SwitchCrash, Switch: 0, At: sim.Millisecond, Restart: 2 * sim.Millisecond},
		{Kind: GilbertLoss, Host: 0, PGB: 0.1, PBG: 0.5, LossGood: 0, LossBad: 0.9},
	}}
	if err := s.Validate(4, 1); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"inverted window", Event{Kind: LinkDown, Host: 0, Down: 10 * sim.Millisecond, Up: 5 * sim.Millisecond}, "window inverted"},
		{"host out of range", Event{Kind: LinkDown, Host: 9, Up: sim.Millisecond}, "out of range"},
		{"negative host out of range", Event{Kind: LinkDown, Host: -9, Up: sim.Millisecond}, "out of range"},
		{"switch out of range", Event{Kind: SwitchCrash, Switch: 3}, "out of range"},
		{"negative restart", Event{Kind: SwitchCrash, Switch: 0, Restart: -1}, "restart_ms"},
		{"bad probability", Event{Kind: GilbertLoss, Host: 0, PGB: 1.5}, "outside [0, 1]"},
		{"unknown kind", Event{Kind: Kind(99)}, "unknown kind"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.ev}}
		err := s.Validate(4, 1)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule not empty")
	}
	if !(&Schedule{}).Empty() {
		t.Error("zero schedule not empty")
	}
	if (&Schedule{Events: []Event{{Kind: LinkDown}}}).Empty() {
		t.Error("non-empty schedule reported empty")
	}
	nilSched.Apply(nil, nil, nil) // must be a no-op, not a nil deref
	nilSched.Walk(nil, Target{}, nil)
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		LinkDown: "link-down", SwitchCrash: "switch-crash", GilbertLoss: "gilbert-loss",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
