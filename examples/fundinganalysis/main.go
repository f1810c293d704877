// Fundinganalysis: the programmatic side of the paper as data — regenerate
// the FY92-93 budget table and the FY93 request chart, derive growth and
// shares, cross-reference the responsibilities matrix with the consortium
// rosters, and list the program's goals.
//
//	go run ./examples/fundinganalysis
package main

import (
	"fmt"

	"repro/internal/agency"
	"repro/internal/funding"
	"repro/internal/report"
)

func main() {
	lines := funding.FY9293()

	fmt.Print(funding.Table().Render())
	fmt.Println()

	labels := make([]string, len(lines))
	fy93 := make([]float64, len(lines))
	for i, l := range lines {
		labels[i], fy93[i] = l.Agency, l.FY93
	}
	fmt.Print(report.BarChart("FY 1993 request ($M)", labels, fy93, 40))
	fmt.Println()

	// Which agencies carry each program component?
	for _, c := range agency.Components() {
		var names []string
		var budget93 float64
		for _, a := range agency.All() {
			if !a.HasRole(c) {
				continue
			}
			names = append(names, a.Name)
			for _, l := range lines {
				if l.Agency == a.Name {
					budget93 += l.FY93
				}
			}
		}
		fmt.Printf("%s (%s): %d agencies, combined FY93 budgets $%.1fM\n",
			c, c.Title(), len(names), budget93)
	}
	fmt.Println()

	// Growth leaders.
	t := report.NewTable("FY92 -> FY93 growth leaders", "Agency", "Growth %")
	best, bestG := "", -1.0
	for _, l := range lines {
		if g := l.Growth(); g > bestG {
			best, bestG = l.Agency, g
		}
		t.AddRow(l.Agency, report.Cellf("%+.1f", l.Growth()*100))
	}
	fmt.Print(t.Render())
	fmt.Printf("\nfastest-growing agency: %s (%.0f%%)\n\n", best, bestG*100)

	// Consortium rosters from the paper.
	fmt.Print(agency.RosterTable().Render())
	fmt.Println()
	fmt.Println("CAS industrial participants:")
	for _, name := range agency.CASIndustry() {
		fmt.Printf("  - %s\n", name)
	}
	fmt.Println()

	fmt.Println("Program goals:")
	for i, g := range agency.Goals() {
		fmt.Printf("  %d. %s\n", i+1, g)
	}
}
