package dlm

import (
	"fmt"
	"testing"
)

// TestQueue drives the lock queue through scripts of requests and
// releases. Acquire and TryAcquire steps expect "ok" (granted at once)
// or "no" (queued, or refused); a Release step expects the waiters it
// granted, in grant order.
func TestQueue(t *testing.T) {
	type step struct {
		op   byte   // 'a' Acquire, 't' TryAcquire, 'r' Release
		who  string // Acquire only
		excl bool
		want string
	}
	const s, x = false, true
	cases := []struct {
		name  string
		steps []step
	}{
		{"shared holders coexist", []step{
			{'a', "a", s, "ok"}, {'t', "", s, "ok"}, {'t', "", x, "no"},
			{'r', "", s, "[]"}, {'r', "", s, "[]"}, {'t', "", x, "ok"},
		}},
		{"cohort grant", []step{
			{'a', "a", x, "ok"}, {'a', "b", s, "no"}, {'a', "c", s, "no"}, {'a', "d", x, "no"},
			{'r', "", x, "[b c]"}, {'r', "", s, "[]"}, {'r', "", s, "[d]"}, {'r', "", x, "[]"},
		}},
		{"exclusive alone", []step{
			{'a', "a", s, "ok"}, {'a', "b", x, "no"}, {'a', "c", x, "no"},
			{'r', "", s, "[b]"}, {'r', "", x, "[c]"}, {'r', "", x, "[]"},
		}},
		{"no overtaking", []step{
			{'a', "a", s, "ok"}, {'a', "w", x, "no"},
			{'t', "", s, "no"}, {'a', "b", s, "no"}, {'t', "", x, "no"},
			{'r', "", s, "[w]"}, {'r', "", x, "[b]"}, {'t', "", s, "ok"},
		}},
		{"release order", []step{
			{'a', "a", x, "ok"}, {'a', "b", s, "no"}, {'a', "c", x, "no"}, {'a', "d", s, "no"}, {'a', "e", s, "no"},
			{'r', "", x, "[b]"}, {'r', "", s, "[c]"}, {'r', "", x, "[d e]"},
			{'a', "f", x, "no"}, {'r', "", s, "[]"}, {'r', "", s, "[f]"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue[string]
			for i, st := range tc.steps {
				var got string
				switch st.op {
				case 'a':
					got = okNo(q.Acquire(st.who, st.excl))
				case 't':
					got = okNo(q.TryAcquire(st.excl))
				case 'r':
					var who []string
					for _, w := range q.Release(st.excl, nil) {
						who = append(who, w.Who)
					}
					got = fmt.Sprint(who)
				}
				if got != st.want {
					t.Fatalf("step %d (%c %q excl=%v): got %s, want %s", i, st.op, st.who, st.excl, got, st.want)
				}
			}
		})
	}
}

func okNo(granted bool) string {
	if granted {
		return "ok"
	}
	return "no"
}
