package main

// pinnedDigests are the input digests at seed 1. Every run at seed 1 checks
// its inputs against them, so a change to internal/workloads or
// internal/docgen cannot silently change the load; other seeds print their
// digest unchecked. After a deliberate change, run each workload at seed 1
// and copy the digest it reports.
var pinnedDigests = map[string]string{
	"cold-adhoc":   "602a230c2539f4fda35f8e6bc6debb205128298f3b49b1753335d0de2c2410a4",
	"hot-line":     "96d681eca78ab93578765c1718ac5822483f0cad2db9a16d8732a18a47bfc49e",
	"rows-http":    "3a74c13fcff93a2470fe75a5452c2e5e490fc768c98a762149c3ea7c9630d371",
	"scan-sharded": "56ee0f55b7e7e6ca86e5b3caff32e38ae7515a61b142c7badd939e698554ec4b",
	"mixed-rw":     "d4a48d6e39cc436f83e4855afb35eba3092aa84056b47bd3af03b05dec52cf84",
}
