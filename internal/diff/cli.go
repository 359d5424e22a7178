package diff

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Main implements the `hpdc21 diff` subcommand: compare two run
// artifacts and report the differences. It follows diff(1)'s exit-code
// contract — 0 when the inputs are identical, 1 when they differ, 2 on
// trouble — so ci.sh can gate on
// determinism ("same seed twice must diff clean") with a bare exit-code
// check, and identical inputs write zero bytes.
func Main(prog string, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog+" diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "report format: text or json (the oversub-diff/v1 document)")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s diff [-format text|json] [-o file] <a> <b>\n\n"+
			"Compares two run artifacts (trace summaries, metrics exports,\n"+
			"benchmark reports, fleet JSON, blame tables). Identical inputs produce no output\n"+
			"and exit 0; differing inputs exit 1; trouble exits 2.\n\nflags:\n", prog)
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	switch *format {
	case "text", "json":
	default:
		fmt.Fprintf(stderr, "%s diff: unknown -format %q (want text or json)\n", prog, *format)
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	r, err := Files(fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "%s diff: %v\n", prog, err)
		return 2
	}
	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "%s diff: %v\n", prog, err)
			return 2
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "%s diff: %v\n", prog, err)
			}
		}()
		w = f
	}
	if err := r.Write(w, *format); err != nil {
		fmt.Fprintf(stderr, "%s diff: %v\n", prog, err)
		return 2
	}
	if r.Identical {
		return 0
	}
	return 1
}
