package vtrace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"vsched/internal/sim"
)

// TestRecordCompact: the ring's record stays at 40 bytes and holds no
// pointers, so a DefaultCapacity ring is ~10.5 MB the garbage collector
// never scans.
func TestRecordCompact(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 40 {
		t.Fatalf("record is %d bytes, want <= 40", n)
	}
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !walk(ty.Field(i).Type) {
					t.Errorf("record field %s (%s) holds a pointer", ty.Field(i).Name, ty.Field(i).Type)
					return false
				}
			}
			return true
		}
		return false
	}
	walk(reflect.TypeOf(record{}))
}

// TestRingRoundTrip: after wraparound, Events() equals the last cap events
// an observer saw, subjects included, and Total and Dropped count the
// lifetime and the overwritten events. Subjects vary in pointer and content
// (equal strings at different addresses, a prefix at the same address, the
// empty string, more distinct subjects than intern cache slots) so every
// intern path is exercised.
func TestRingRoundTrip(t *testing.T) {
	const capacity, n = 37, 1000
	var seen []Event
	tr := New(capacity)
	tr.SetObserver(func(ev Event) { seen = append(seen, ev) })
	vcpu0 := fmt.Sprintf("vm/vcpu%d", 0)
	// vcpu0's prefix shares its data pointer: the cache must check length.
	fixed := []string{"", vcpu0, vcpu0[:len(vcpu0)-1], "vm/vcpu1", "tenant"}
	for i := 0; i < n; i++ {
		var subject string
		switch i % 3 {
		case 0:
			subject = fixed[i%len(fixed)]
		case 1:
			subject = fmt.Sprintf("vm%d/task-%d", i%5, i%97) // fresh pointer every time
		default:
			subject = strings.Clone(fixed[i%len(fixed)])
		}
		tr.Emit(sim.Time(i), Kind(i%int(numKinds)), subject, int64(i), -int64(i)<<40, int64(i%7)-3)
		if got := seen[len(seen)-1].Subject; unsafe.StringData(got) != unsafe.StringData(subject) {
			t.Fatalf("event %d: observer got a copy of the subject, want the caller's string", i)
		}
	}
	if tr.Total() != n || tr.Dropped() != n-capacity {
		t.Fatalf("total=%d dropped=%d, want %d and %d", tr.Total(), tr.Dropped(), n, n-capacity)
	}
	if got, want := tr.Events(), seen[n-capacity:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("ring round trip differs:\n got %v\nwant %v", got, want)
	}
}

// TestRingEmitAllocBudget: once a subject has been seen, a ring emit
// allocates nothing, whether the subject hits the intern cache or is an
// equal string at another address that only the subject table knows.
func TestRingEmitAllocBudget(t *testing.T) {
	subjects := []string{"vm/vcpu0", fmt.Sprintf("vm/task-%d", 7), "tenant"}
	tr := New(64) // small ring: exercises the overwrite path too
	for _, s := range subjects {
		tr.Emit(0, KindTaskWakeup, s, 1, 2, 3)
	}
	clone := strings.Clone(subjects[1])
	var at sim.Time
	if n := testing.AllocsPerRun(1000, func() {
		at++
		for _, s := range subjects {
			tr.Emit(at, KindTaskOn, s, 1, 2, 3)
		}
		tr.Emit(at, KindTaskOff, clone, 1, 2, 0)
	}); n != 0 {
		t.Fatalf("ring emit of a known subject allocates %v times per cycle, want 0", n)
	}
}
