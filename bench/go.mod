module treesim/bench

go 1.24

require treesim v0.0.0

replace treesim => ../
