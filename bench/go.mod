module pocketcloudlets/bench

go 1.22

require pocketcloudlets v0.0.0

replace pocketcloudlets => ../
