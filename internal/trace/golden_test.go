package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iceclave/internal/sim"
)

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenSchedules pins the exact parsed schedule — arrival instants,
// tenants, workloads, and band classification — for the committed golden
// traces, so any reader or classifier change that shifts a single
// submission fails loudly.
func TestGoldenSchedules(t *testing.T) {
	cases := []struct {
		file   string
		format Format
		want   []Submission
	}{
		{
			// Well-formed, in file order, one entry per band.
			file:   "golden_native.csv",
			format: FormatNative,
			want: []Submission{
				{At: 0, Tenant: "alpha", Workload: "Filter", Band: 2},
				{At: 250 * sim.Microsecond, Tenant: "beta", Workload: "Aggregate", Band: 1},
				{At: 1000 * sim.Microsecond, Tenant: "gamma", Workload: "TPC-B", Band: 0},
			},
		},
		{
			// Azure schema: arrival = end_timestamp - duration, classified
			// by duration. f2 starts *before* the trace epoch (12 - 30 =
			// -18 s), so it becomes the schedule origin and the two
			// invocations starting at 10 s land 28 s later, keeping file
			// order at the shared instant.
			file:   "golden_azure.csv",
			format: FormatAzure,
			want: []Submission{
				{At: 0, Tenant: "app-b", Workload: "f2", Band: 1},
				{At: 28 * sim.Second, Tenant: "app-a", Workload: "f1", Band: 2},
				{At: 28 * sim.Second, Tenant: "app-a", Workload: "f3", Band: 0},
			},
		},
		{
			// Out-of-order timestamps: the schedule is sorted and
			// re-anchored at the earliest arrival (100 us), the file is not.
			file:   "out_of_order.csv",
			format: FormatNative,
			want: []Submission{
				{At: 0, Tenant: "tenant-a", Workload: "Filter", Band: 2},
				{At: 0, Tenant: "tenant-b", Workload: "Aggregate", Band: 1},
				{At: 300 * sim.Microsecond, Tenant: "tenant-a", Workload: "TPC-C", Band: 0},
				{At: 800 * sim.Microsecond, Tenant: "tenant-z", Workload: "Wordcount", Band: 0},
			},
		},
		{
			// Duplicate tenants are distinct submissions, never merged.
			file:   "duplicate_tenants.csv",
			format: FormatNative,
			want: []Submission{
				{At: 0, Tenant: "shared", Workload: "Filter", Band: 2},
				{At: 0, Tenant: "shared", Workload: "Filter", Band: 2},
				{At: 50 * sim.Microsecond, Tenant: "shared", Workload: "Aggregate", Band: 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data := readGolden(t, tc.file)
			sched, format, err := ParseSchedule(data)
			if err != nil {
				t.Fatal(err)
			}
			if format != tc.format {
				t.Fatalf("format = %v, want %v", format, tc.format)
			}
			if !reflect.DeepEqual(sched.Submissions, tc.want) {
				t.Fatalf("schedule mismatch:\ngot  %+v\nwant %+v", sched.Submissions, tc.want)
			}
		})
	}
}

// TestGoldenRaggedRowTypedError pins that a short row in a committed
// fixture fails with a located *ParseError instead of panicking or
// dropping the row.
func TestGoldenRaggedRowTypedError(t *testing.T) {
	_, format, err := ReadBytes(readGolden(t, "ragged.csv"))
	if format != FormatNative {
		t.Fatalf("format = %v, want native", format)
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *ParseError", err, err)
	}
	if pe.Line != 3 || pe.Field != "row" {
		t.Fatalf("ParseError = %+v, want line 3 field \"row\"", pe)
	}
	if msg := pe.Error(); !strings.Contains(msg, "line 3") || !strings.Contains(msg, "native") {
		t.Fatalf("error message %q lacks location", msg)
	}
}

// TestMalformedRowsProduceTypedErrors walks the malformed-input matrix:
// every bad row stops the read with a *ParseError naming the line and
// field, and an unrecognized header wraps ErrUnknownFormat.
func TestMalformedRowsProduceTypedErrors(t *testing.T) {
	native := "arrival_us,tenant,workload,class\n"
	azure := "app,func,end_timestamp,duration\n"
	cases := []struct {
		name  string
		input string
		line  int
		field string
	}{
		{"native bad arrival", native + "abc,a,w,batch\n", 2, "arrival_us"},
		{"native negative arrival", native + "-5,a,w,batch\n", 2, "arrival_us"},
		{"native overflow arrival", native + "99999999999999999,a,w,batch\n", 2, "arrival_us"},
		{"native empty tenant", native + "0,,w,batch\n", 2, "tenant"},
		{"native empty workload", native + "0,a,,batch\n", 2, "workload"},
		{"native unknown class", native + "0,a,w,urgent\n", 2, "class"},
		{"native extra field", native + "0,a,w,batch,x\n", 2, "row"},
		{"native second row bad", native + "0,a,w,batch\n1,b,w,nope\n", 3, "class"},
		{"azure empty app", azure + ",f,1,1\n", 2, "app"},
		{"azure empty func", azure + "a,,1,1\n", 2, "func"},
		{"azure bad end", azure + "a,f,xyz,1\n", 2, "end_timestamp"},
		{"azure nan end", azure + "a,f,NaN,1\n", 2, "end_timestamp"},
		{"azure inf duration", azure + "a,f,1,Inf\n", 2, "duration"},
		{"azure negative duration", azure + "a,f,1,-2\n", 2, "duration"},
		{"azure overflow seconds", azure + "a,f,5e12,1\n", 2, "end_timestamp"},
		{"azure ragged", azure + "a,f,1\n", 2, "row"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadBytes([]byte(tc.input))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error = %v (%T), want *ParseError", err, err)
			}
			if pe.Line != tc.line || pe.Field != tc.field {
				t.Fatalf("ParseError = %+v, want line %d field %q", pe, tc.line, tc.field)
			}
		})
	}

	for _, bad := range []string{"", "\n\n", "a,b,c\n", "lba,size,op,time\n1,2,r,3\n"} {
		if _, _, err := ReadBytes([]byte(bad)); !errors.Is(err, ErrUnknownFormat) {
			t.Fatalf("input %q: error = %v, want ErrUnknownFormat", bad, err)
		}
	}
}

// TestReaderTolerantFraming pins the framing the readers must accept
// without changing the parse: CRLF line endings, blank lines between rows,
// leading blank lines before the header, and padded fields.
func TestReaderTolerantFraming(t *testing.T) {
	framed := "\n\r\narrival_us, tenant , workload ,class\r\n\n 0 , a , Filter , batch \r\n\n"
	entries, format, err := ReadBytes([]byte(framed))
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatNative {
		t.Fatalf("format = %v, want native", format)
	}
	want := []Entry{{Arrival: 0, Tenant: "a", Workload: "Filter", Class: ClassBatch}}
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("entries = %+v, want %+v", entries, want)
	}

	// The io.Reader front door parses identically.
	viaReader, rf, err := Read(strings.NewReader(framed))
	if err != nil || rf != format || !reflect.DeepEqual(viaReader, entries) {
		t.Fatalf("Read diverges from ReadBytes: %+v %v %v", viaReader, rf, err)
	}
}

// TestScheduleHelpers pins Span on a known schedule (TestGoldenSchedules
// pins its submissions and bands).
func TestScheduleHelpers(t *testing.T) {
	sched, _, err := ParseSchedule(readGolden(t, "out_of_order.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Span(); got != 800*sim.Microsecond {
		t.Fatalf("span = %v, want 800us", got)
	}
}

// TestClassBandAlignment pins the deliberate numeric coupling between
// latency classes and scheduler priority bands: batch=0 (low),
// normal=1, interactive=2 (high).
func TestClassBandAlignment(t *testing.T) {
	if ClassBatch.Band() != 0 || ClassNormal.Band() != 1 || ClassInteractive.Band() != 2 {
		t.Fatalf("class/band mapping shifted: batch=%d normal=%d interactive=%d",
			ClassBatch.Band(), ClassNormal.Band(), ClassInteractive.Band())
	}
	for c, want := range map[Class]string{ClassBatch: "batch", ClassNormal: "normal", ClassInteractive: "interactive"} {
		if c.String() != want {
			t.Fatalf("Class(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

// TestEmbeddedBurstyFixtureCoversAllBands pins the committed experiment
// fixture: it must parse cleanly and populate every priority band, the
// property the band-coverage experiments and tests build on.
func TestEmbeddedBurstyFixtureCoversAllBands(t *testing.T) {
	sched, format, err := ParseSchedule(FixtureBursty)
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatNative {
		t.Fatalf("fixture format = %v, want native", format)
	}
	if len(sched.Submissions) != 8 {
		t.Fatalf("fixture has %d submissions, want 8", len(sched.Submissions))
	}
	var seen [3]bool
	for _, sub := range sched.Submissions {
		seen[sub.Band] = true
	}
	if seen != [3]bool{true, true, true} {
		t.Fatalf("fixture leaves a band empty: %+v", sched.Submissions)
	}
	if sched.Submissions[0].At != 0 {
		t.Fatalf("fixture schedule starts at %v, want 0", sched.Submissions[0].At)
	}
}
