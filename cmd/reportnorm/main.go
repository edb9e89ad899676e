// Command reportnorm canonicalizes a cmd/loadtest JSON report on stdin
// so two reports can be compared byte-for-byte for model determinism:
// wall-clock and replica presentation fields stripped, keys sorted,
// every number as the report printed it (package internal/reportnorm).
// -keep backend retains the per-replica backend rows it strips by
// default.
package main

import (
	"flag"
	"fmt"
	"os"

	"pocketcloudlets/internal/reportnorm"
)

func main() {
	keep := flag.String("keep", "", "comma-separated default-stripped keys to retain (\"backend\")")
	flag.Parse()
	if err := reportnorm.Run(*keep, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "reportnorm: %v\n", err)
		os.Exit(1)
	}
}
