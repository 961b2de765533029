package failpoint

import "testing"

// BenchmarkInjectDisabled measures the cost the framework adds to a hot
// protocol edge when the site is disarmed — the acceptance bar is a single
// atomic load (sub-nanosecond next to a slot CAS).
func BenchmarkInjectDisabled(b *testing.B) {
	s := New("bench/disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Inject()
	}
}

// BenchmarkInjectErrDisabled is the error-returning variant.
func BenchmarkInjectErrDisabled(b *testing.B) {
	s := New("bench/disabled-err")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.InjectErr(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInjectArmedOff measures the armed-but-inert slow path (an "off"
// program), the cost a chaos run pays on sites it armed with countdown
// prefixes.
func BenchmarkInjectArmedOff(b *testing.B) {
	s := New("bench/armed-off")
	if err := Enable("bench/armed-off", "off"); err != nil {
		b.Fatal(err)
	}
	defer Disable("bench/armed-off")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Inject()
	}
}
