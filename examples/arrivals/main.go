// Arrival-pattern crossover study: the paper's §III examples
// generalized into a curve. Two identical 100-second jobs; the second
// arrives at offsets from 0% to 100% of the first job's runtime. For
// each offset the program prints TET and ART under FIFO, MRShare
// (single batch) and S^3 — showing where each scheme wins and why S^3
// dominates ART at every offset.
package main

import (
	"fmt"
	"log"
	"strings"

	"s3sched/internal/benchfmt"
	"s3sched/internal/experiments"
	"s3sched/internal/workload"
)

// twoJobs is the workload file cmd/s3compare/testdata/examples-20.jsonl
// with the second job's arrival left to fill in (%d seconds after the
// first): a 10-block file on one map slot, each block a 10-second
// segment.
const twoJobs = `{"kind":"workload","version":1,"name":"examples","nodes":1,"slotsPerNode":1,"replicas":1,"cost":{"scanMBps":6.4}}
{"kind":"file","name":"input","content":"meta","blocks":10,"blockBytes":67108864,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"input","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":%d,"file":"input","factory":"wordcount","param":"a"}
`

func main() {
	fmt.Println("two 100s jobs; J2 arrives at offset t (10s segment granularity)")
	fmt.Printf("%8s | %8s %8s | %8s %8s | %8s %8s\n",
		"offset", "fifoTET", "fifoART", "mrsTET", "mrsART", "s3TET", "s3ART")
	schemes := []string{"fifo", "mrshare", "s3"}
	for off := 0; off <= 100; off += 10 {
		wf, err := workload.ParseFile(strings.NewReader(fmt.Sprintf(twoJobs, off)))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := experiments.RunCompare(wf, experiments.CompareOptions{Schedulers: schemes, Engines: []string{benchfmt.EngineSim}})
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%7ds |", off)
		for _, scheme := range schemes {
			c := rep.Cell(benchfmt.CellKey{Scheduler: scheme, Engine: benchfmt.EngineSim})
			row += fmt.Sprintf(" %8.0f %8.0f", c.TET, c.ART)
			if scheme != "s3" {
				row += " |"
			}
		}
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Println("reading the curve:")
	fmt.Println(" - FIFO TET is always 200s: no sharing, full serialization.")
	fmt.Println(" - MRShare TET = offset+100: J1 idles until J2 arrives, then one batch.")
	fmt.Println(" - S3 TET = max(100, offset+100-shared): J2 salvages J1's remaining scan.")
	fmt.Println(" - S3 ART stays 100s at every offset: nobody ever waits.")
}
