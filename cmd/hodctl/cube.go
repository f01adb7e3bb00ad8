package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/pkg/hod"
)

// cmdCube runs one OLAP query against a hodserve plant's cube through
// the typed SDK client and renders the cells (or members) as a table.
func cmdCube(args []string) error {
	fs := newFlagSet("cube")
	addr := fs.String("addr", "http://localhost:8080", "hodserve base URL")
	plantID := fs.String("plant", "plant-1", "plant ID on the server")
	op := fs.String("op", "slice", "cube operation: slice, rollup, members, drilldown")
	where := fs.String("where", "", "comma-separated dim=member constraints, e.g. line=line-0,phase=print")
	keep := fs.String("keep", "", "rollup: comma-separated dimensions to keep, e.g. line,sensor")
	dim := fs.String("dim", "", "members/drilldown: target dimension")
	asJSON := fs.Bool("json", false, "emit the raw wire response")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	q := hod.CubeQuery{Op: *op, Dim: *dim}
	if *keep != "" {
		q.Keep = strings.Split(*keep, ",")
	}
	if *where != "" {
		q.Where = map[string]string{}
		for _, c := range strings.Split(*where, ",") {
			d, m, ok := strings.Cut(c, "=")
			if !ok || d == "" || m == "" {
				return usagef("cube: bad -where constraint %q (want dim=member)", c)
			}
			// The wire grammar refuses a repeated dimension; keeping the
			// last one here would answer a question the user did not ask.
			if _, dup := q.Where[d]; dup {
				return usagef("cube: duplicate -where constraint for dimension %q", d)
			}
			q.Where[d] = m
		}
	}
	client := hod.NewClient(*addr)
	resp, err := client.Cube(context.Background(), *plantID, q)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	fmt.Printf("plant %s, op %s over dims %s (%d cells in the full cube)\n",
		resp.Plant, resp.Op, strings.Join(resp.Dims, "×"), resp.TotalCells)
	if len(resp.Where) > 0 {
		fmt.Printf("where: %s\n", strings.Join(resp.Where, ", "))
	}
	if resp.Op == "members" {
		fmt.Printf("%d members of %s:\n", len(resp.Members), *dim)
		for _, m := range resp.Members {
			fmt.Println(" ", m)
		}
		return nil
	}
	fmt.Printf("%-44s %-8s %-12s %-12s %-12s %s\n", "coord", "count", "mean", "min", "max", "sum")
	for _, cell := range resp.Cells {
		fmt.Printf("%-44s %-8d %-12.4f %-12.4f %-12.4f %.4f\n",
			strings.Join(cell.Coord, "/"), cell.Count, cell.Mean, cell.Min, cell.Max, cell.Sum)
	}
	return nil
}
