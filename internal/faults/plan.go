package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse reads the textual plan grammar used by ngdc-bench's -faults
// flag. A plan is a sequence of directives separated by semicolons or
// newlines:
//
//	seed=42
//	crash@5ms node=1
//	restart@20ms node=1
//	partition@1ms a=0 b=2
//	heal@3ms a=0 b=2
//	delay@2ms a=0 b=1 add=10us
//	loss@2ms a=0 b=1 p=0.25
//
// Each fault directive is "<kind>@<when> key=value ...", with <when> a
// Go duration (virtual time since the start of the run). Unknown kinds
// or keys are errors; Plan.String() output round-trips through Parse.
func Parse(s string) (*Plan, error) {
	plan := &Plan{}
	for _, raw := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' }) {
		dir := strings.TrimSpace(raw)
		if dir == "" || strings.HasPrefix(dir, "#") {
			continue
		}
		if v, ok := strings.CutPrefix(dir, "seed="); ok {
			seed, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			plan.Seed = seed
			continue
		}
		ev, err := parseEvent(dir)
		if err != nil {
			return nil, err
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan, nil
}

func parseEvent(dir string) (Event, error) {
	fields := strings.Fields(dir)
	head := fields[0]
	kindStr, whenStr, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: directive %q: want <kind>@<when>", dir)
	}
	var ev Event
	kind := -1
	for k, name := range kindNames {
		if name == kindStr {
			kind = k
		}
	}
	if kind < 0 {
		return Event{}, fmt.Errorf("faults: unknown kind %q in %q", kindStr, dir)
	}
	ev.Kind = Kind(kind)
	at, err := time.ParseDuration(whenStr)
	if err != nil {
		return Event{}, fmt.Errorf("faults: bad instant in %q: %v", dir, err)
	}
	if at < 0 {
		return Event{}, fmt.Errorf("faults: negative instant in %q", dir)
	}
	ev.At = at

	seen := map[string]bool{}
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Event{}, fmt.Errorf("faults: bad argument %q in %q", kv, dir)
		}
		seen[key] = true
		switch key {
		case "node":
			ev.Node, err = strconv.Atoi(val)
		case "a":
			ev.A, err = strconv.Atoi(val)
		case "b":
			ev.B, err = strconv.Atoi(val)
		case "add":
			ev.Extra, err = time.ParseDuration(val)
		case "p":
			ev.Prob, err = strconv.ParseFloat(val, 64)
		default:
			return Event{}, fmt.Errorf("faults: unknown key %q in %q", key, dir)
		}
		if err != nil {
			return Event{}, fmt.Errorf("faults: bad value %q in %q: %v", kv, dir, err)
		}
	}
	if ev.Node < 0 || ev.A < 0 || ev.B < 0 {
		return Event{}, fmt.Errorf("faults: negative node in %q", dir)
	}

	switch ev.Kind {
	case Crash, Restart:
		if !seen["node"] {
			return Event{}, fmt.Errorf("faults: %s needs node= in %q", ev.Kind, dir)
		}
	default:
		if !seen["a"] || !seen["b"] {
			return Event{}, fmt.Errorf("faults: %s needs a= and b= in %q", ev.Kind, dir)
		}
	}
	if ev.Kind == Delay && !seen["add"] {
		return Event{}, fmt.Errorf("faults: delay needs add= in %q", dir)
	}
	if ev.Kind == Loss {
		if !seen["p"] {
			return Event{}, fmt.Errorf("faults: loss needs p= in %q", dir)
		}
		if ev.Prob < 0 || ev.Prob > 1 {
			return Event{}, fmt.Errorf("faults: loss p=%g out of [0,1] in %q", ev.Prob, dir)
		}
	}
	return ev, nil
}
