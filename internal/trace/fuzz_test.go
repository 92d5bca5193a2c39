package trace

import (
	"errors"
	"strings"
	"testing"
)

// FuzzTraceReader pins the reader's failure contract on arbitrary bytes:
// parsing never panics, every failure is a typed error (*ParseError or a
// wrapped ErrUnknownFormat), and a successful parse accounts for every
// non-blank data row — no silent drops — and builds a well-formed schedule
// (sorted, zero-anchored, bands in range). Seeds cover the native schema,
// foreign headers (an Azure Functions invocation layout among them), the
// malformed shapes the golden tests pin, and the committed corpus under
// testdata/fuzz keeps prior crashers in CI forever.
func FuzzTraceReader(f *testing.F) {
	f.Add([]byte("arrival_us,tenant,workload,class\n0,a,Filter,interactive\n250,b,Aggregate,normal\n"))
	f.Add([]byte("app,func,end_timestamp,duration\napp-a,f1,10.5,0.5\napp-b,f2,12.0,30\n"))
	f.Add([]byte("arrival_us,tenant,workload,class\n10,beta,Aggregate\n"))
	f.Add([]byte("arrival_us,tenant,workload,class\n-1,a,w,batch\n"))
	f.Add([]byte("arrival_us,tenant,workload,class\n99999999999999999,a,w,batch\n"))
	f.Add([]byte("app,func,end_timestamp,duration\na,f,NaN,1\n"))
	f.Add([]byte("app,func,end_timestamp,duration\na,f,1e308,1e308\n"))
	f.Add([]byte("lba,size,op,time\n1,2,r,3\n"))
	f.Add([]byte("\r\n\narrival_us, Tenant ,WORKLOAD,class\r\n 5 , a , w , low \r\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add(FixtureBursty)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, format, err := ReadBytes(data)
		if err != nil {
			var pe *ParseError
			switch {
			case errors.Is(err, ErrUnknownFormat):
				if format != FormatUnknown {
					t.Fatalf("unknown-format error but format = %v", format)
				}
			case errors.As(err, &pe):
				if pe.Line < 2 {
					t.Fatalf("ParseError on line %d — data rows start after the header", pe.Line)
				}
				if format == FormatUnknown {
					t.Fatalf("row-level error with unknown format: %v", err)
				}
			default:
				t.Fatalf("untyped error %v (%T)", err, err)
			}
			return
		}
		if format == FormatUnknown {
			t.Fatal("successful parse reported unknown format")
		}
		// Every non-blank data row must be accounted for.
		lines := strings.Split(string(data), "\n")
		head := 0
		for head < len(lines) && strings.TrimSpace(lines[head]) == "" {
			head++
		}
		rows := 0
		for _, l := range lines[head+1:] {
			if strings.TrimSpace(l) != "" {
				rows++
			}
		}
		if len(entries) != rows {
			t.Fatalf("parsed %d entries from %d non-blank rows — silent drop", len(entries), rows)
		}
		sched := BuildSchedule(entries)
		if len(sched.Submissions) != len(entries) {
			t.Fatalf("schedule has %d submissions for %d entries", len(sched.Submissions), len(entries))
		}
		for i, sub := range sched.Submissions {
			if sub.Band < 0 || sub.Band > 2 {
				t.Fatalf("submission %d band %d out of range", i, sub.Band)
			}
			if i == 0 {
				if sub.At != 0 {
					t.Fatalf("schedule not zero-anchored: first arrival %v", sub.At)
				}
				continue
			}
			if sub.At < sched.Submissions[i-1].At {
				t.Fatalf("schedule out of order at %d: %v after %v", i, sub.At, sched.Submissions[i-1].At)
			}
		}
	})
}
